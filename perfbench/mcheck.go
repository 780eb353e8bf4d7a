package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/coherence"
	"repro/internal/mcheck"
)

// mcheckPolicies is the default `make mcheck` grid: the three paper
// policies plus Phase-Priority.
func mcheckPolicies() []coherence.Policy {
	return append(append([]coherence.Policy(nil), coherence.Policies...), coherence.PhasePriority)
}

// mcheckDepth is the exploration depth of a round: one below the `make
// mcheck` default of 4, so that a round takes about 2 s rather than 16 s
// and a run holds several warm rounds.
const mcheckDepth = 3

// setupReps is how many depth-1 explorations per policy and round measure
// the checker's set-up cost.
const setupReps = 3

type mcRound struct {
	wall          time.Duration
	setups        []time.Duration // depth-1 explorations
	explore       []time.Duration // one per policy, in mcheckPolicies order
	states, edges int
	allocBytes    uint64
	gc            gcState
}

// runMcheck explores the default grid (2 cores, 1 line) at mcheckDepth
// under every policy, one after another. The search is exhaustive, so
// the seed does not change the inputs. A first round warms the process
// up (heap size, page faults) and is checked but not measured.
func runMcheck(b *bench) error {
	ac := newAllocCounter()
	var tr *tracer
	round := func(out *[]mcRound) func() time.Duration {
		return func() time.Duration {
			r := mcheckRound(b, ac, tr)
			*out = append(*out, r)
			return r.wall
		}
	}
	untracedBudget, tracedBudget := b.halves()
	var plain, traced []mcRound
	mcheckRound(b, ac, nil)
	rss := startRSSSampler("self")
	loopRounds(untracedBudget, 0, round(&plain))
	rssMB, err := rss.finish()
	if err != nil {
		return err
	}
	var prof *cpuProfile
	if b.traced {
		tr = newTracer()
		if prof, err = startCPUProfile(fmt.Sprintf("%s/cpu-%s-%d.pprof", b.outDir, b.workload, b.seed)); err != nil {
			return err
		}
		loopRounds(tracedBudget, 0, round(&traced))
		prof.stop()
		if err := tr.write(fmt.Sprintf("%s/spans-%s-%d.json", b.outDir, b.workload, b.seed)); err != nil {
			return err
		}
	}
	var walls []float64
	for _, r := range plain {
		walls = append(walls, r.wall.Seconds())
	}
	fmt.Fprintf(os.Stderr, "perfbench: mcheck: %d states, %d edges per round, %d+%d rounds, untraced round walls %.3f s\n",
		plain[0].states, plain[0].edges, len(plain), len(traced), walls)

	var setups, rates, allocs []float64
	for _, r := range plain {
		setups = append(setups, seconds(r.setups)...)
		rates = append(rates, ratio(float64(r.states), r.wall.Seconds()))
		allocs = append(allocs, float64(r.allocBytes)/(1<<20))
	}
	b.set("wall_s", median(walls))
	b.set("setup_s", median(setups))
	b.set("peak_rss_mb", rssMB)
	b.set("work_per_s", median(rates))
	b.set("alloc_mb", median(allocs))
	if !b.traced {
		return nil
	}

	med := func(rs []mcRound, f func(mcRound) float64) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = f(r)
		}
		return median(xs)
	}
	sum := func(ds []time.Duration) (t time.Duration) {
		for _, d := range ds {
			t += d
		}
		return t
	}
	b.set("rounds", float64(len(plain)+len(traced)))
	b.set("trace.overhead_s", med(traced, func(r mcRound) float64 { return r.wall.Seconds() })-median(walls))
	b.set("mcheck_states_per_s", median(rates))
	b.set("mcheck.states", float64(plain[0].states))
	b.set("mcheck.edges", float64(plain[0].edges))
	b.set("mcheck.us_per_edge", med(traced, func(r mcRound) float64 {
		return ratio(float64(sum(r.explore).Microseconds()), float64(r.edges))
	}))
	for i, p := range mcheckPolicies() {
		b.set(mcheckPolicyMetric(p.Name()), med(traced, func(r mcRound) float64 { return r.explore[i].Seconds() }))
	}
	b.set("gc.cycles", med(traced, func(r mcRound) float64 { return float64(r.gc.cycles) }))
	b.set("gc.pause_ms", med(traced, func(r mcRound) float64 { return float64(r.gc.pauseNS) / 1e6 }))
	b.set("gc.run_alloc_mb", med(traced, func(r mcRound) float64 { return float64(r.allocBytes) / (1 << 20) }))
	prof.report(b)
	return nil
}

func mcheckRound(b *bench, ac *allocCounter, tr *tracer) mcRound {
	var r mcRound
	gc0 := readGC()
	a0, _ := ac.read()
	start := time.Now()
	roundSpan := tr.add("round", 0, start, start)
	for _, p := range mcheckPolicies() {
		for i := 0; i < setupReps; i++ {
			t0 := time.Now()
			_, err := mcheck.Run(mcheck.Config{Policy: p, Depth: 1})
			t1 := time.Now()
			b.check(err == nil, "%s depth-1 set-up: %v", p.Name(), err)
			r.setups = append(r.setups, t1.Sub(t0))
			tr.add("mcheck.Run depth 1 "+p.Name(), roundSpan, t0, t1)
		}
		t0 := time.Now()
		res, err := mcheck.Run(mcheck.Config{Policy: p, Depth: mcheckDepth})
		t1 := time.Now()
		r.explore = append(r.explore, t1.Sub(t0))
		tr.add("mcheck.Run "+p.Name(), roundSpan, t0, t1)
		if err != nil {
			b.check(false, "%s: %v", p.Name(), err)
			continue
		}
		want := expected.Mcheck[p.Name()]
		b.check(res.Violation == nil && !res.Truncated && res.States == want[0] && res.Edges == want[1],
			"%s: violation %v, truncated %v, %d states and %d edges, recorded %d and %d",
			p.Name(), res.Violation != nil, res.Truncated, res.States, res.Edges, want[0], want[1])
		r.states += res.States
		r.edges += res.Edges
	}
	r.wall = time.Since(start)
	tr.end(roundSpan, start.Add(r.wall))
	a1, _ := ac.read()
	gc1 := readGC()
	r.allocBytes = a1 - a0
	r.gc = gcState{cycles: gc1.cycles - gc0.cycles, pauseNS: gc1.pauseNS - gc0.pauseNS}
	return r
}
