package main

import (
	"strings"
	"testing"
)

// TestDeclarationsMatchBenchmarkJSON checks that the metric table the
// benchmark prints from and BENCHMARK.json at the repository root name
// the same metrics with the same units, in each mode.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		e2e      bool
		declared []specMetric
	}{{true, spec.EndToEnd}, {false, spec.PerLayer}} {
		printed := map[string]metric{}
		for _, d := range metricDefs {
			if d.e2e == mode.e2e {
				printed[d.name] = metric{Unit: d.unit}
			}
		}
		if errs := checkNames(printed, mode.declared); len(errs) > 0 {
			t.Errorf("e2e=%v:\n%s", mode.e2e, strings.Join(errs, "\n"))
		}
	}
}

func TestMetricNamesAreUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range metricDefs {
		if seen[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		seen[d.name] = true
	}
}

func TestCheckNamesReportsEveryDifference(t *testing.T) {
	declared := []specMetric{{"wall_s", "s"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"}}
	printed := map[string]metric{
		"wall_s":      {1, "s"},
		"setup_s":     {1, "ms"},
		"extra_count": {1, "count"},
	}
	errs := checkNames(printed, declared)
	want := []string{
		"metric extra_count is printed but not declared",
		"metric peak_rss_mb is declared but not printed",
		"metric setup_s is printed in ms but declared in s",
	}
	if strings.Join(errs, "\n") != strings.Join(want, "\n") {
		t.Errorf("checkNames =\n%s\nwant\n%s", strings.Join(errs, "\n"), strings.Join(want, "\n"))
	}
	if errs := checkNames(map[string]metric{"wall_s": {1, "s"}}, declared[:1]); len(errs) != 0 {
		t.Errorf("matching sets reported %v", errs)
	}
}
