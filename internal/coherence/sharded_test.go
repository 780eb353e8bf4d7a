package coherence

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/sim"
)

// sysFingerprint captures everything a run can observe about a system:
// final clock, executed-event count, message accounting, controller
// statistics, the architectural memory image, and the full per-access
// result stream in completion order. Two byte-identical runs must agree on
// all of it.
type sysFingerprint struct {
	end      sim.Cycle
	executed uint64
	messages uint64
	kinds    [MsgDataFromOwner + 1]uint64
	bank     BankStats
	l1       []L1Stats
	memHash  string
	results  []AccessResult
}

func fingerprint(s *System, results []AccessResult) sysFingerprint {
	fp := sysFingerprint{
		end:      s.Eng.Now(),
		executed: s.ExecutedEvents(),
		messages: s.TotalMessages(),
		bank:     s.BankStatsTotal(),
		memHash:  s.MemImageHash(),
		results:  results,
	}
	for k := range fp.kinds {
		fp.kinds[k] = s.MsgCount(MsgKind(k))
	}
	for _, l1 := range s.L1s {
		fp.l1 = append(fp.l1, l1.Stats)
	}
	return fp
}

func checkFingerprintsEqual(t *testing.T, want, got sysFingerprint, label string) {
	t.Helper()
	if want.end != got.end {
		t.Errorf("%s: final cycle %d, want %d", label, got.end, want.end)
	}
	if want.executed != got.executed {
		t.Errorf("%s: executed %d, want %d", label, got.executed, want.executed)
	}
	if want.messages != got.messages {
		t.Errorf("%s: messages %d, want %d", label, got.messages, want.messages)
	}
	if want.kinds != got.kinds {
		t.Errorf("%s: per-kind counts diverged:\n got %v\nwant %v", label, got.kinds, want.kinds)
	}
	if want.bank != got.bank {
		t.Errorf("%s: bank stats diverged:\n got %+v\nwant %+v", label, got.bank, want.bank)
	}
	if !reflect.DeepEqual(want.l1, got.l1) {
		t.Errorf("%s: L1 stats diverged:\n got %+v\nwant %+v", label, got.l1, want.l1)
	}
	if want.memHash != got.memHash {
		t.Errorf("%s: memory image hash %s, want %s", label, got.memHash, want.memHash)
	}
	if len(want.results) != len(got.results) {
		t.Fatalf("%s: %d results, want %d", label, len(got.results), len(want.results))
	}
	for i := range want.results {
		if want.results[i] != got.results[i] {
			t.Fatalf("%s: result %d = %+v, want %+v", label, i, got.results[i], want.results[i])
		}
	}
}

// shardedTestConfig is testConfig with 8 banks (so shards=8 still maps at
// least one bank per shard) and a small LLC to exercise recalls.
func shardedTestConfig(p Policy, cores, shards int, noFast bool) SystemConfig {
	cfg := testConfig(p, cores)
	cfg.Banks = 8
	cfg.LLCParams = cache.Params{Name: "LLC", SizeBytes: 4 << 10, Ways: 4, BlockSize: 64}
	cfg.Shards = shards
	cfg.NoFastPath = noFast
	return cfg
}

// plannedAccess is one pre-generated workload access. The whole workload
// is planned up front, per core, because generation must not depend on
// completion interleaving: inside parallel epochs, cores on different
// shards complete concurrently, so drawing the next access from a shared
// RNG at completion time would embed wall-clock ordering in the workload.
// A core's own completion order is deterministic (all its events execute
// on its shard in (cycle, key) order), so per-core consumption is safe.
type plannedAccess struct {
	block     cache.Addr
	write, wp bool
	value     uint64
}

func planWorkload(cores, perCore int, seed uint64) [][]plannedAccess {
	plans := make([][]plannedAccess, cores)
	for c := range plans {
		rng := sim.NewRNG(seed + uint64(c)*1000003)
		for i := 0; i < perCore; i++ {
			write := rng.Bool(0.3)
			plans[c] = append(plans[c], plannedAccess{
				block: cache.Addr(0x100000 + uint64(rng.Intn(32))*64),
				write: write,
				wp:    !write && rng.Bool(0.4),
				value: rng.Uint64(),
			})
		}
	}
	return plans
}

// runConcurrentWorkload drives overlapping per-core access chains (the
// stress pattern) over a pre-planned workload and returns the fingerprint
// after a full drain. Results are collected per core (each core's Done
// callbacks run on its own shard, in deterministic order) and concatenated
// by core id.
func runConcurrentWorkload(t *testing.T, cfg SystemConfig, seed uint64, perCore int) sysFingerprint {
	t.Helper()
	return driveConcurrentWorkload(t, MustNewSystem(cfg), seed, perCore)
}

// driveConcurrentWorkload is runConcurrentWorkload on an existing system.
func driveConcurrentWorkload(t *testing.T, s *System, seed uint64, perCore int) sysFingerprint {
	t.Helper()
	cores := len(s.L1s)
	plans := planWorkload(cores, perCore, seed)
	perCoreResults := make([][]AccessResult, cores)
	next := make([]int, cores)
	for c := 0; c < cores; c++ {
		c := c
		var issue func()
		issue = func() {
			if next[c] >= len(plans[c]) {
				return
			}
			pa := plans[c][next[c]]
			next[c]++
			s.Submit(c, Access{
				Addr: pa.block, Write: pa.write, WP: pa.wp, Value: pa.value,
				Done: func(r AccessResult) {
					perCoreResults[c] = append(perCoreResults[c], r)
					issue()
				},
			})
		}
		// Three overlapping chains per core.
		issue()
		issue()
		issue()
	}
	s.Quiesce()
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants after drain: %v", err)
	}
	var results []AccessResult
	for c := range perCoreResults {
		if len(perCoreResults[c]) != perCore {
			t.Fatalf("core %d completed %d/%d accesses", c, len(perCoreResults[c]), perCore)
		}
		results = append(results, perCoreResults[c]...)
	}
	return fingerprint(s, results)
}

// TestShardedConcurrentEquivalence: the concurrent stress workload must be
// byte-identical between the sequential engine and every shard count, in
// both execution modes — parallel epochs (NoFastPath=true satisfies
// ParallelSafe) and sequential stepping (fast path enabled).
func TestShardedConcurrentEquivalence(t *testing.T) {
	for _, p := range AllPolicies {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			for _, noFast := range []bool{true, false} {
				want := runConcurrentWorkload(t, shardedTestConfig(p, 4, 1, noFast), 12345, 200)
				for _, shards := range []int{2, 4, 8} {
					label := fmt.Sprintf("shards=%d/noFast=%v", shards, noFast)
					got := runConcurrentWorkload(t, shardedTestConfig(p, 4, shards, noFast), 12345, 200)
					checkFingerprintsEqual(t, want, got, label)
				}
			}
		})
	}
}

// runSyncWorkload drives a serialized AccessSync stream — the probe
// interface — through stepping mode, asserting the data-value invariant on
// the way, and fingerprints the result (including every AccessResult).
func runSyncWorkload(t *testing.T, cfg SystemConfig, seed uint64, n int) sysFingerprint {
	t.Helper()
	s := MustNewSystem(cfg)
	rng := sim.NewRNG(seed)
	shadow := map[cache.Addr]uint64{}
	var results []AccessResult
	val := seed
	for i := 0; i < n; i++ {
		core := rng.Intn(cfg.NumL1)
		block := cache.Addr(0x100000 + uint64(rng.Intn(24))*64)
		write := rng.Bool(0.3)
		wp := !write && rng.Bool(0.4)
		if write {
			val++
			results = append(results, s.AccessSync(core, block, true, false, val))
			shadow[block] = val
		} else {
			r := s.AccessSync(core, block, false, wp, 0)
			want, ok := shadow[block]
			if !ok {
				want = initialToken(block)
			}
			if r.Value != want {
				t.Fatalf("load %#x on core %d: got %#x want %#x", block, core, r.Value, want)
			}
			results = append(results, r)
		}
	}
	s.Quiesce()
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants after drain: %v", err)
	}
	return fingerprint(s, results)
}

// TestShardedAccessSyncEquivalence: the synchronous probe interface (fast
// path enabled — the stricter configuration) reports identical latencies,
// values, and service classes at every shard count. AccessSync demands
// exact stop cycles, so sharded systems drive it through stepping mode.
func TestShardedAccessSyncEquivalence(t *testing.T) {
	for _, p := range Policies {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			want := runSyncWorkload(t, shardedTestConfig(p, 4, 1, false), 7, 600)
			for _, shards := range []int{2, 4, 8} {
				got := runSyncWorkload(t, shardedTestConfig(p, 4, shards, false), 7, 600)
				checkFingerprintsEqual(t, want, got, fmt.Sprintf("shards=%d", shards))
			}
		})
	}
}

// TestShardedDumpStateIdentical: in stepping mode the global message ring
// advances exactly as on one engine, so the full failure diagnostic — the
// strongest observable surface — renders byte-identically.
func TestShardedDumpStateIdentical(t *testing.T) {
	dump := func(shards int) string {
		s := MustNewSystem(shardedTestConfig(SwiftDir, 4, shards, false))
		rng := sim.NewRNG(3)
		for i := 0; i < 300; i++ {
			block := cache.Addr(0x100000 + uint64(rng.Intn(16))*64)
			s.AccessSync(rng.Intn(4), block, rng.Bool(0.5), false, uint64(i))
		}
		s.Quiesce()
		return s.DumpState()
	}
	want := dump(1)
	got := dump(4)
	// The title line (final cycle) must match exactly; the pending-events
	// section names the engine layout and both runs are quiesced (no
	// events), so everything from the directory section on — transactions,
	// MSHRs, the delivered-message tail — must match byte for byte.
	const marker = "-- directory transient transactions --"
	wantTitle, _, _ := strings.Cut(want, "\n")
	gotTitle, _, _ := strings.Cut(got, "\n")
	if wantTitle != gotTitle {
		t.Fatalf("dump titles diverged: %q vs %q", wantTitle, gotTitle)
	}
	wi := strings.Index(want, marker)
	gi := strings.Index(got, marker)
	if wi < 0 || gi < 0 {
		t.Fatalf("dump missing %q section", marker)
	}
	if want[wi:] != got[gi:] {
		t.Fatalf("dump tails diverged:\n--- shards=1 ---\n%s\n--- shards=4 ---\n%s", want[wi:], got[gi:])
	}
}

// TestShardedValidation: invalid shard configurations are rejected with
// errors, not panics.
func TestShardedValidation(t *testing.T) {
	cfg := shardedTestConfig(SwiftDir, 4, 4, false)
	cfg.Shards = 65
	if _, err := NewSystem(cfg); err == nil {
		t.Error("shards=65 accepted")
	}
	cfg.Shards = -1
	if _, err := NewSystem(cfg); err == nil {
		t.Error("shards=-1 accepted")
	}
	cfg.Shards = 4
	cfg.ShardOfL1 = []int{0, 1}
	if _, err := NewSystem(cfg); err == nil {
		t.Error("short ShardOfL1 accepted")
	}
	cfg.ShardOfL1 = []int{0, 1, 2, 9}
	if _, err := NewSystem(cfg); err == nil {
		t.Error("out-of-range ShardOfL1 accepted")
	}
	cfg.ShardOfL1 = nil
	cfg.Timing.Hop = 0
	if _, err := NewSystem(cfg); err == nil {
		t.Error("zero hop latency accepted with shards")
	}
	cfg.Timing = DefaultTiming()
	cfg.Timing.LLCTag = cfg.Timing.Hop - 1
	if _, err := NewSystem(cfg); err == nil {
		t.Error("LLCTag < Hop accepted with shards")
	}
}

// TestShardedExplicitPinning: an explicit ShardOfL1 map changes shard
// placement without changing a single observable byte.
func TestShardedExplicitPinning(t *testing.T) {
	want := runConcurrentWorkload(t, shardedTestConfig(SwiftDir, 4, 1, true), 99, 120)
	cfg := shardedTestConfig(SwiftDir, 4, 4, true)
	cfg.ShardOfL1 = []int{3, 0, 2, 1}
	got := runConcurrentWorkload(t, cfg, 99, 120)
	checkFingerprintsEqual(t, want, got, "pinned")
}
