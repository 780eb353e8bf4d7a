package coherence

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/sim"
)

// resetTopologies are the machines Reset is checked on: a flat crossbar
// with port occupancy and jitter (so the port bookkeeping and the jitter
// stream carry state), a 2-cluster two-level directory (hub records), and
// a small mesh with link occupancy (per-link bookkeeping).
func resetTopologies(p Policy) []struct {
	name string
	cfg  SystemConfig
} {
	flat := testConfig(p, 4)
	flat.LLCParams = cache.Params{Name: "LLC", SizeBytes: 4 << 10, Ways: 4, BlockSize: 64}
	flat.Timing.LinkOccupancy = 2
	flat.Timing.JitterMax = 5
	flat.Timing.JitterSeed = 31

	mesh := testConfig(p, 4)
	mesh.LLCParams = flat.LLCParams
	mesh.Topology = "mesh"
	mesh.MeshW, mesh.MeshH = 2, 2
	mesh.MeshPerHop = 2
	mesh.MeshLinkOccupancy = 3

	return []struct {
		name string
		cfg  SystemConfig
	}{
		{"crossbar", flat},
		{"two-level", clusterTestConfig(p, 4, 2)},
		{"mesh", mesh},
	}
}

// trafficBlocks is the footprint of the reset tests' bursts: more blocks
// than an L1 or an LLC bank holds, so evictions, writebacks and recalls
// are part of the traffic.
const trafficBlocks = 40

func trafficBlock(i int) cache.Addr { return cache.Addr(0x100000 + uint64(i)*64) }

// dirtyUntil submits a burst of conflicting accesses — stores carry
// sequence numbers, so the per-block store-order records fill too — and
// steps the engine until stop reports true, leaving the machine mid-run.
// It reports false if the burst drained first.
func dirtyUntil(s *System, stop func(*System) bool) bool {
	rng := sim.NewRNG(7)
	for i := 0; i < 400; i++ {
		write := rng.Bool(0.4)
		a := Access{Addr: trafficBlock(rng.Intn(trafficBlocks)), Write: write, Value: rng.Uint64()}
		if write {
			a.Seq = uint64(1000 + i)
		} else {
			a.WP = rng.Bool(0.4)
		}
		s.Submit(rng.Intn(len(s.L1s)), a)
	}
	for s.Eng.Step() {
		if stop(s) {
			return true
		}
	}
	return false
}

// holdsWriteback: MSHRs, a busy directory transaction, and a
// writeback-buffer entry are all live.
func holdsWriteback(s *System) bool {
	mshrs, wbs := 0, 0
	for _, l1 := range s.L1s {
		mshrs += len(l1.mshrs)
		wbs += len(l1.wb)
	}
	busy := 0
	for _, b := range s.banks {
		busy += len(b.busy)
	}
	return mshrs > 0 && wbs > 0 && busy > 0
}

// holdsPin: a grant with no follow-up unblock is in flight.
func holdsPin(s *System) bool {
	for _, b := range s.banks {
		if len(b.pinned) > 0 {
			return true
		}
	}
	return false
}

// sequencedStores submits same-block stores stamped with low sequence
// numbers and drains the system. A store-order record left behind by a
// run before Reset would suppress them and change the memory image.
func sequencedStores(s *System) string {
	rng := sim.NewRNG(11)
	for i := 0; i < 64; i++ {
		s.Submit(rng.Intn(len(s.L1s)), Access{
			Addr: trafficBlock(rng.Intn(trafficBlocks)), Write: true,
			Value: rng.Uint64(), Seq: uint64(i + 1),
		})
	}
	s.Quiesce()
	return s.MemImageHash()
}

// memStats is the DRAM model's statistics, comparable with ==.
type memStats struct {
	reads, writes, hits, misses, conflicts, stalls uint64
	service, maxLat                                sim.Cycle
}

func memStatsOf(s *System) memStats {
	m := s.Mem
	return memStats{m.Reads, m.Writes, m.RowHits, m.RowMisses, m.RowConflicts,
		m.RefreshStalls, m.TotalServiceCycles, m.MaxObservedLatencyCycles}
}

// TestResetMatchesFresh: a system reset in the middle of a run is
// indistinguishable from a freshly built one — the same diagnostic dump,
// and, replaying the same workload on both, the same access results,
// controller statistics, message accounting, memory image, final cycle
// and executed-event count. Each machine is reset at two points: with
// writeback-buffer entries live, and with a pinned grant in flight
// (two-level machines never pin, so they have only the first).
func TestResetMatchesFresh(t *testing.T) {
	cuts := []struct {
		name string
		stop func(*System) bool
	}{
		{"writeback", holdsWriteback},
		{"pin", holdsPin},
	}
	for _, p := range ExtendedPolicies {
		for _, topo := range resetTopologies(p) {
			cfg := topo.cfg
			if cfg.Validate() != nil {
				continue // the two-level directory rejects O/F-state and arbitrating policies
			}
			for _, cut := range cuts {
				if cut.name == "pin" && cfg.Clusters > 1 {
					continue
				}
				name := p.Name() + "/" + topo.name + "/" + cut.name
				t.Run(name, func(t *testing.T) {
					s := MustNewSystem(cfg)
					tr := s.AttachTracer()
					if !dirtyUntil(s, cut.stop) {
						t.Fatal("the burst drained before reaching the reset point")
					}
					if err := s.Reset(); err != nil {
						t.Fatal(err)
					}
					traced := len(tr.Events)
					checkResetMatchesFresh(t, s, MustNewSystem(cfg), name)
					if len(tr.Events) != traced {
						t.Errorf("a tracer attached before Reset recorded %d more messages", len(tr.Events)-traced)
					}
				})
			}
		}
	}
}

// checkResetMatchesFresh compares a reset system s against a fresh one.
func checkResetMatchesFresh(t *testing.T, s, fresh *System, label string) {
	t.Helper()
	if got, want := s.DumpState(), fresh.DumpState(); got != want {
		t.Fatalf("reset system dump differs from a fresh one:\n--- reset ---\n%s\n--- fresh ---\n%s", got, want)
	}
	for _, l1 := range s.L1s {
		if n := l1.Array().CountValid(); n != 0 {
			t.Fatalf("L1 %d holds %d lines after Reset", l1.ID, n)
		}
	}
	for i := 0; i < s.NumBanks(); i++ {
		if n := s.BankArray(i).CountValid(); n != 0 {
			t.Fatalf("bank %d holds %d lines after Reset", i, n)
		}
	}

	want := driveConcurrentWorkload(t, fresh, 99, 60)
	got := driveConcurrentWorkload(t, s, 99, 60)
	checkFingerprintsEqual(t, want, got, label)
	if g, w := memStatsOf(s), memStatsOf(fresh); g != w {
		t.Errorf("DRAM stats %+v, want %+v", g, w)
	}
	if g, w := s.Network().AvgQueueing(), fresh.Network().AvgQueueing(); g != w {
		t.Errorf("fabric queueing %v, want %v", g, w)
	}
	if got, want := s.DumpState(), fresh.DumpState(); got != want {
		t.Fatalf("dumps diverged after the replay:\n--- reset ---\n%s\n--- fresh ---\n%s", got, want)
	}
	if got, want := sequencedStores(s), sequencedStores(fresh); got != want {
		t.Errorf("sequenced stores left memory image %s, want %s", got, want)
	}
}

// TestResetRefusesShardedAndFaulted: a sharded engine and a fault
// injector carry state Reset does not own, so both are refused.
func TestResetRefusesShardedAndFaulted(t *testing.T) {
	sharded := MustNewSystem(shardedTestConfig(MESI, 4, 2, true))
	if err := sharded.Reset(); err == nil || !strings.Contains(err.Error(), "sharded") {
		t.Errorf("Reset of a sharded system: err = %v, want a sharded refusal", err)
	}
	cfg := testConfig(MESI, 2)
	cfg.Faults = fault.MustNewInjector(fault.Plan{Name: "spikes", Seed: 3, LinkSpikeProb: 0.1, LinkSpikeMax: 9})
	faulted := MustNewSystem(cfg)
	if err := faulted.Reset(); err == nil || !strings.Contains(err.Error(), "fault injector") {
		t.Errorf("Reset of a fault-injected system: err = %v, want a fault-injector refusal", err)
	}
}
