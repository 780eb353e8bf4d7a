//go:build !race

// Allocation-regression tests for the coherence hot path: a steady-state
// L1 hit — the most frequent operation in every experiment — must not
// allocate. Excluded under -race because the race detector instruments
// allocations.

package coherence

import (
	"runtime"
	"testing"

	"repro/internal/cache"
)

// TestSteadyStateL1HitZeroAlloc pins the full hit path — Submit, the
// tag-lookup event, process, complete, Done — at zero allocations.
func TestSteadyStateL1HitZeroAlloc(t *testing.T) {
	s := MustNewSystem(testConfig(MESI, 2))
	const addr = blockA
	done := func(AccessResult) {}

	// Warm: install the line (load) and drive it to M (store), then pump
	// hits until the clock has swept the engine's whole calendar ring, so
	// every bucket along the hit path's stride has grown its slot and every
	// pool has reached steady state.
	s.AccessSync(0, addr, false, false, 0)
	s.AccessSync(0, addr, true, false, 1)
	start := s.Eng.Now()
	for i := 0; s.Eng.Now()-start < 4096 || i < 64; i++ {
		s.Submit(0, Access{Addr: addr, Write: i%2 == 0, Value: uint64(i), Done: done})
		s.Eng.Run()
	}

	allocs := testing.AllocsPerRun(500, func() {
		s.Submit(0, Access{Addr: addr, Done: done})
		s.Eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state L1 load hit allocates %.1f per access, want 0", allocs)
	}

	allocs = testing.AllocsPerRun(500, func() {
		s.Submit(0, Access{Addr: addr, Write: true, Value: 42, Done: done})
		s.Eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state L1 store hit allocates %.1f per access, want 0", allocs)
	}
}

// TestSteadyStateMissZeroAlloc drives a working set larger than the L1
// through one controller until every pool (MSHRs, txns, directory entries,
// message events) reaches capacity, then asserts the whole miss path —
// request, directory grant, install, eviction, writeback — allocates
// nothing per access.
func TestSteadyStateMissZeroAlloc(t *testing.T) {
	s := MustNewSystem(testConfig(MESI, 2))
	done := func(AccessResult) {}
	// 64 blocks cycle through a 1 KB / 16-line L1: permanent miss+evict
	// traffic confined to a fixed footprint.
	addrOf := func(i int) cache.Addr { return blockA + cache.Addr((i%64)*64) }

	for i := 0; i < 2048; i++ {
		s.Submit(0, Access{Addr: addrOf(i), Write: i%4 == 0, Value: uint64(i), Done: done})
		s.Eng.Run()
	}

	i := 2048
	allocs := testing.AllocsPerRun(500, func() {
		s.Submit(0, Access{Addr: addrOf(i), Write: i%4 == 0, Value: uint64(i), Done: done})
		i++
		s.Eng.Run()
	})
	if allocs > 0.1 {
		t.Fatalf("steady-state L1 miss allocates %.2f per access, want 0", allocs)
	}
}

// TestFastPathZeroAlloc pins the synchronous fast path — TryFastAccess
// plus AccessSync's zero-event completion tier — at zero allocations and
// confirms the path actually fires (FastHits advances every iteration).
func TestFastPathZeroAlloc(t *testing.T) {
	s := MustNewSystem(testConfig(MESI, 2))
	const addr = blockA
	s.AccessSync(0, addr, false, false, 0)
	s.AccessSync(0, addr, true, false, 1)
	s.Eng.Run() // drain directory cleanup so the fast path is eligible

	before := s.L1s[0].Stats.FastHits
	var i uint64
	allocs := testing.AllocsPerRun(500, func() {
		s.AccessSync(0, addr, i%2 == 0, false, i)
		i++
	})
	if allocs != 0 {
		t.Fatalf("fast-path hit allocates %.1f per access, want 0", allocs)
	}
	if after := s.L1s[0].Stats.FastHits; after-before < 500 {
		t.Fatalf("fast path fired %d times during the alloc run, want >= 500", after-before)
	}
}

// TestResetZeroAlloc pins System.Reset at zero allocations on a system
// interrupted mid-run. The first reset may grow the free lists that take
// back live MSHRs, transactions and directory entries; replaying the
// same traffic afterwards needs no more of them, so every later reset
// must allocate nothing. Mallocs are counted around the Reset call alone.
func TestResetZeroAlloc(t *testing.T) {
	for _, cfg := range []SystemConfig{testConfig(MESI, 4), clusterTestConfig(SwiftDir, 4, 2)} {
		s := MustNewSystem(cfg)
		var before, after runtime.MemStats
		for round := 0; round < 4; round++ {
			if !dirtyUntil(s, holdsWriteback) {
				t.Fatal("the burst drained before reaching the reset point")
			}
			runtime.ReadMemStats(&before)
			err := s.Reset()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if n := after.Mallocs - before.Mallocs; round > 0 && n != 0 {
				t.Fatalf("clusters=%d round %d: Reset allocated %d objects, want 0", cfg.Clusters, round, n)
			}
		}
	}
}
