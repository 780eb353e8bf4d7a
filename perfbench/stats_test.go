package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileInterpolatesBetweenRanks(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {100, 10}, {50, 5.5},
		// statistics.quantiles(range(1, 11), n=4, method="inclusive")
		{25, 3.25}, {75, 7.75},
		{90, 9.1}, {99, 9.91},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Errorf("percentile sorted its input in place")
	}
}

func TestPercentileEdgeCases(t *testing.T) {
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty sample: got %v, want 0", got)
	}
	if got := median([]float64{4.2}); got != 4.2 {
		t.Errorf("single sample: got %v, want 4.2", got)
	}
	// statistics.quantiles([3.1, 1.2, 8.5, 4.4, 2.0], n=4, method="inclusive")
	s := []float64{3.1, 1.2, 8.5, 4.4, 2.0}
	if q1, q3 := percentile(s, 25), percentile(s, 75); !near(q1, 2.0) || !near(q3, 4.4) {
		t.Errorf("quartiles = %v, %v, want 2.0, 4.4", q1, q3)
	}
}

func TestRatioOfEmptyBaseIsZero(t *testing.T) {
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio(3, 0) = %v, want 0", got)
	}
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v, want 0.75", got)
	}
}

func TestLoopRoundsStopsWhenNextRoundWouldOverrun(t *testing.T) {
	n := 0
	walls := loopRounds(0, 0, func() time.Duration { n++; return time.Millisecond })
	if n != 1 || len(walls) != 1 {
		t.Errorf("zero budget ran %d rounds, want exactly 1", n)
	}
	n = 0
	walls = loopRounds(time.Hour, 3, func() time.Duration { n++; return time.Millisecond })
	if n != 3 || len(walls) != 3 {
		t.Errorf("a limit of 3 rounds ran %d", n)
	}
}
