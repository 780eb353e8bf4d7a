package mcheck

import (
	"testing"

	"repro/internal/coherence"
	"repro/internal/sim"
)

// TestRecycledRunnerMatchesFresh drives seeded random action paths
// through one runner reset before every path, and through a fresh runner
// per path, and requires equal fingerprints after every action. This is
// the property the explorer relies on when it recycles one runner for
// every edge.
func TestRecycledRunnerMatchesFresh(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"mesi-2line", Config{Policy: coherence.MESI, Lines: 2}},
		{"swiftdir-prelude", Config{Policy: coherence.SwiftDir, Cores: 3, Prelude: []Inject{
			{Core: 0, Op: OpLoadWP, Line: 0}, {Core: 1, Op: OpLoad, Line: 0}, {Core: 2, Op: OpStore, Line: 0},
		}}},
		{"s-mesi-two-level", Config{Policy: coherence.SMESI, Cores: 4, Clusters: 2, Prelude: []Inject{
			{Core: 0, Op: OpLoad, Line: 0}, {Core: 3, Op: OpLoad, Line: 0},
		}}},
		{"phase-priority-2line", Config{Policy: coherence.PhasePriority, Lines: 2, L1Blocks: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Depth = 16
			c, err := newChecker(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := sim.NewRNG(0x5EED)
			recycled := c.newRunner()
			var buf []Action
			for path := 0; path < 40; path++ {
				recycled.reset()
				fresh := c.newRunner()
				if c.fingerprint(recycled) != c.fingerprint(fresh) {
					t.Fatalf("path %d: reset runner differs from a fresh one before any action", path)
				}
				var taken []Action
				for step := 0; step < 30; step++ {
					buf = fuzzEnabled(fresh, &c.cfg, c.ops, buf)
					if len(buf) == 0 {
						break
					}
					a := buf[rng.Intn(len(buf))]
					taken = append(taken, a)
					fresh.apply(a)
					recycled.apply(a)
					vf, vr := fresh.checkState(), recycled.checkState()
					if (vf == nil) != (vr == nil) || (vf != nil && *vf != *vr) {
						t.Fatalf("path %d %v: violation %v fresh, %v recycled", path, taken, vf, vr)
					}
					if vf != nil {
						break
					}
					if c.fingerprint(recycled) != c.fingerprint(fresh) {
						t.Fatalf("path %d: fingerprints diverged after %v", path, taken)
					}
				}
			}
		})
	}
}
