package soak

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/interconnect"
	"repro/internal/sim"
)

// scaledChaosBase is the 64-core mesh/two-level machine the chaos sweep
// targets: big enough that the mesh has 256 directed links and the
// directory runs two-level (8 hubs), small enough that a scaled-down
// benchmark sweep stays test-suite friendly.
func scaledChaosBase(proto string) Spec {
	return Spec{
		Benchmark: "dedup", // 4 threads, heavy sharing: real cross-tile traffic
		Protocol:  proto,
		CPU:       "DerivO3CPU",
		Scale:     0.02,
		Scaled:    true,
		Cores:     64,
		Watchdog:  DefaultWatchdog(),
	}
}

// The scaled-machine chaos property: mesh link spikes, pinned-link
// storms, and cluster-hub busy windows perturb timing on layers the flat
// Table V machine does not even have — and still must leave the
// architectural projection byte-identical to the no-fault control, for
// every protocol. This is the metamorphic oracle of the original sweep,
// re-run where the new fault classes actually bite.
func TestScaledChaosSweepMetamorphic(t *testing.T) {
	w, h := core.MeshDims(64)
	plans := fault.RandomScaledPlans(8, 0xC4A0, interconnect.MeshLinks(w, h))
	if plans[0].Name != "no-fault" {
		t.Fatalf("plan 0 is %q, want the no-fault control", plans[0].Name)
	}
	// The generator must actually cover the new classes, or the sweep
	// silently degenerates into a DRAM-only soak.
	var mesh, hub int
	for _, p := range plans[1:] {
		if p.MeshSpikeProb > 0 || len(p.MeshStorms) > 0 {
			mesh++
		}
		if p.HubBusyProb > 0 || len(p.HubStorms) > 0 {
			hub++
		}
	}
	if mesh == 0 || hub == 0 {
		t.Fatalf("scaled plans exercise mesh=%d hub=%d classes; want both > 0", mesh, hub)
	}
	for _, proto := range []string{"MESI", "S-MESI", "SwiftDir"} {
		t.Run(proto, func(t *testing.T) {
			res := Sweep(scaledChaosBase(proto), plans, t.TempDir(), 0)
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			control := res.Outcomes[0].Result
			if control.Instrs == 0 || control.MemImageHash == "" {
				t.Fatalf("empty control projection: %+v", control)
			}
		})
	}
}

// A failure recorded on the scaled machine (64-core mesh, two-level
// directory with hubs) under mesh and hub fault injection must replay
// byte-identically from its bundle: the replay spec carries the scaled
// topology and the fault plan, so the injector's draws, the violation,
// and the full diagnostic — pending events, hub records, MSHRs, message
// tail — all reproduce. Covers both a forced failure and a watchdog
// liveness trip (hang bundle).
func TestScaledBundleRoundTrip(t *testing.T) {
	cases := []struct {
		plan     fault.Plan
		kind     fault.Kind
		watchdog sim.WatchdogConfig
	}{
		{
			plan: fault.Plan{Name: "scaled-forced", Seed: 11, FailAt: 2_000,
				MeshSpikeProb: 0.05, MeshSpikeMax: 8,
				HubBusyProb: 0.05, HubBusyMax: 8},
			kind:     fault.KindForced,
			watchdog: DefaultWatchdog(),
		},
		{
			plan: fault.Plan{Name: "scaled-wedge", Seed: 3, HangAt: 1_000,
				MeshSpikeProb: 0.05, MeshSpikeMax: 8,
				HubBusyProb: 0.05, HubBusyMax: 8},
			kind:     fault.KindLiveness,
			watchdog: sim.WatchdogConfig{MaxEvents: 10_000, MaxCycles: 100_000},
		},
	}
	for _, tc := range cases {
		t.Run(tc.plan.Name, func(t *testing.T) {
			base := scaledChaosBase("SwiftDir")
			base.Watchdog = tc.watchdog
			res := Sweep(base, []fault.Plan{tc.plan}, t.TempDir(), 1)
			if res.Err == nil {
				t.Fatal("plan did not fail the sweep")
			}
			po := res.Outcomes[0]
			if po.Bundle == "" {
				t.Fatalf("no bundle recorded; outcome err: %v", po.Err)
			}
			recorded, err := fault.ReadBundleViolation(po.Bundle)
			if err != nil {
				t.Fatal(err)
			}
			if recorded.Kind != tc.kind {
				t.Fatalf("bundled violation kind %q, want %q", recorded.Kind, tc.kind)
			}

			out, err := Replay(po.Bundle)
			if err != nil {
				t.Fatal(err)
			}
			if out.Violation == nil {
				t.Fatalf("replay did not reproduce the violation (err=%v)", out.Err)
			}
			if !out.Spec.Scaled || out.Spec.Cores != 64 {
				t.Fatalf("replay spec lost the scaled topology: %+v", out.Spec)
			}
			if out.Violation.Kind != recorded.Kind || out.Violation.Cycle != recorded.Cycle ||
				out.Violation.Msg != recorded.Msg || out.Violation.Component != recorded.Component {
				t.Errorf("replay differs from the recording:\n  bundled:  %s\n  replayed: %s",
					recorded.Error(), out.Violation.Error())
			}
			if out.Violation.Dump != recorded.Dump {
				t.Errorf("replayed diagnostic is not byte-identical (%d vs %d bytes)",
					len(out.Violation.Dump), len(recorded.Dump))
			}
			if !strings.Contains(recorded.Dump, "-- hub records --") {
				t.Error("bundled diagnostic has no hub section: not the two-level machine")
			}
		})
	}
}
