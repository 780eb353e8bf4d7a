package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// metricDef declares one metric the benchmark prints: its name, unit and
// whether it belongs to the end-to-end set (untraced runs) or the
// per-layer set (traced runs).
type metricDef struct {
	name string
	unit string
	e2e  bool
}

// profModules are the repository modules the traced run's CPU profile is
// split across, one prof.<module>_pct metric each.
var profModules = []string{
	"attack", "cache", "campaign", "coherence", "core", "cpu", "dram",
	"experiments", "fault", "interconnect", "mcheck", "mmu", "proto",
	"resultcache", "server", "sim", "stats", "workload",
}

// mcheckPolicyMetric names the per-policy exploration time metric.
func mcheckPolicyMetric(policy string) string {
	return "mcheck." + strings.ToLower(policy) + "_s"
}

// metricDefs is every metric, in print order. Every workload prints every
// metric of its mode; a layer a workload does not exercise reads 0.
var metricDefs = func() []metricDef {
	e := func(name, unit string) metricDef { return metricDef{name, unit, true} }
	l := func(name, unit string) metricDef { return metricDef{name, unit, false} }
	defs := []metricDef{
		e("wall_s", "s"),
		e("setup_s", "s"),
		e("peak_rss_mb", "MB"),
		e("work_per_s", "1/s"),
		e("alloc_mb", "MB"),

		// Workload headline figures, taken from the untraced half of
		// the traced run.
		l("rounds", "count"),
		l("trace.overhead_s", "s"),
		l("sim_mips", "MIPS"),
		l("allocs_per_kinstr", "count"),
		l("mcheck_states_per_s", "1/s"),
		l("serve_rps", "1/s"),
		l("hit.samples", "count"),
		l("hit_p50_ms", "ms"),
		l("hit_p99_ms", "ms"),
		l("miss.samples", "count"),
		l("miss_p50_ms", "ms"),
		l("miss_p90_ms", "ms"),

		// Simulator layers, per round of the traced half.
		l("core.machines", "count"),
		l("core.new_machine_ms", "ms"),
		l("core.setup_alloc_mb", "MB"),
		l("mmu.map_ms", "ms"),
		l("cpu.setup_ms", "ms"),
		l("workload.record_ms", "ms"),
		l("sim.events", "count"),
		l("sim.events_per_instr", "count"),
		l("sim.ns_per_event", "ns"),
		l("sim.cycles", "count"),
		l("cpu.run_ms", "ms"),
		l("cpu.instrs", "count"),
		l("cpu.ipc", "count"),
		l("cpu.mispredicts", "count"),
		l("l1.accesses", "count"),
		l("l1.hit_ratio", "count"),
		l("l1.fast_ratio", "count"),
		l("l1.upgrades", "count"),
		l("l1.invalidations", "count"),
		l("dir.requests", "count"),
		l("dir.llc_served", "count"),
		l("dir.forwards", "count"),
		l("dir.mem_fetches", "count"),
		l("dir.recalls", "count"),
		l("dir.recalls_per_request", "count"),
		l("dir.queued_wakeups", "count"),
		l("coherence.check_ms", "ms"),
		l("fabric.messages", "count"),
		l("fabric.msgs_per_access", "count"),
		l("fabric.avg_hops", "count"),
		l("dram.accesses", "count"),
		l("dram.row_hit_ratio", "count"),
		l("gc.cycles", "count"),
		l("gc.pause_ms", "ms"),
		l("gc.run_alloc_mb", "MB"),

		// Model checker.
		l("mcheck.states", "count"),
		l("mcheck.edges", "count"),
		l("mcheck.us_per_edge", "us"),
	}
	for _, p := range mcheckPolicies() {
		defs = append(defs, l(mcheckPolicyMetric(p.Name()), "s"))
	}
	defs = append(defs,
		// Server, seen from the client and from /statsz.
		l("http.transport_p50_ms", "ms"),
		l("server.hit_wall_p50_us", "us"),
		l("batch.p50_ms", "ms"),
		l("server.jobs_end", "count"),
		l("server.refused", "count"),
		l("resultcache.hits", "count"),
		l("resultcache.misses", "count"),
		l("resultcache.runs", "count"),
		l("resultcache.dedups", "count"),
		l("resultcache.get_us", "us"),
		l("resultcache.newkey_us", "us"),
		l("experiments.run_p50_ms", "ms"),

		// CPU-profile shares of the traced half.
		l("prof.cpu_s", "s"),
	)
	for _, m := range profModules {
		defs = append(defs, l("prof."+m+"_pct", "%"))
	}
	defs = append(defs,
		l("prof.malloc_gc_pct", "%"),
		l("prof.map_pct", "%"),
		l("prof.other_pct", "%"),
	)
	return defs
}()

// specFile is the part of BENCHMARK.json the benchmark checks itself
// against.
type specFile struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (specFile, error) {
	var s specFile
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// checkNames reports every difference between the metrics a run is about
// to print and the set BENCHMARK.json declares for that mode: a metric
// printed but not declared, declared but not printed, or printed with
// another unit.
func checkNames(printed map[string]metric, declared []specMetric) []string {
	var errs []string
	want := make(map[string]string, len(declared))
	for _, d := range declared {
		want[d.Name] = d.Unit
	}
	for name, m := range printed {
		unit, ok := want[name]
		switch {
		case !ok:
			errs = append(errs, fmt.Sprintf("metric %s is printed but not declared", name))
		case unit != m.Unit:
			errs = append(errs, fmt.Sprintf("metric %s is printed in %s but declared in %s", name, m.Unit, unit))
		}
	}
	for name := range want {
		if _, ok := printed[name]; !ok {
			errs = append(errs, fmt.Sprintf("metric %s is declared but not printed", name))
		}
	}
	sort.Strings(errs)
	return errs
}
