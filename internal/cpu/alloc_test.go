//go:build !race

// Whole-run allocation budget for the out-of-order core. Excluded under
// -race because the race detector instruments allocations.

package cpu_test

import (
	"runtime"
	"testing"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/mmu"
	"repro/internal/workload"
)

// o3RunAllocBudget is the most heap objects cpu.Run may allocate per
// 1,000 committed instructions of a SPEC 2017 profile on the O3 core.
// What remains is first-touch work (page faults, directory and MSHR map
// growth, slab and free-list growth), not per-instruction or per-event
// allocation.
const o3RunAllocBudget = 200

// TestO3RunAllocBudget runs one SPEC 2017 profile, at fig7's default
// scale, on the 1-core Table V machine under SwiftDir and counts the heap
// objects allocated inside cpu.Run only: machine construction and trace
// generation happen before the count starts.
func TestO3RunAllocBudget(t *testing.T) {
	var prof workload.Profile
	for _, p := range workload.SPEC2017() {
		if p.Name == "xalancbmk" {
			prof = p.Scale(experiments.DefaultParams().Scale)
		}
	}
	if prof.Name == "" {
		t.Fatal("xalancbmk profile not found")
	}
	threads, err := workload.Record(prof)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMachine(core.DefaultConfig(1, coherence.SwiftDir))
	if err != nil {
		t.Fatal(err)
	}
	// Record lays the heap out at the first mapping's base and the shared
	// region at a fixed high address; rebuild that layout.
	proc := m.NewProcess()
	var heapBase, sharedBase mmu.VAddr = ^mmu.VAddr(0), ^mmu.VAddr(0)
	for _, ins := range threads[0] {
		if !ins.Op.IsMem() {
			continue
		}
		if ins.Addr >= 0x7000_0000_0000 {
			sharedBase = min(sharedBase, ins.Addr)
		} else {
			heapBase = min(heapBase, ins.Addr)
		}
	}
	if got := proc.MmapAnon(prof.WorkingSetKB * 1024); heapBase < got {
		t.Fatalf("trace heap starts at %#x, below the mapped heap at %#x", uint64(heapBase), uint64(got))
	}
	if sharedBase != ^mmu.VAddr(0) {
		base := sharedBase &^ (mmu.PageSize - 1)
		lib := mmu.NewFile(prof.Name+".so", prof.Seed)
		if err := proc.AS.MmapFixed(base, prof.SharedKB*1024, mmu.ProtRead|mmu.ProtExec, mmu.MapShared, lib, 0); err != nil {
			t.Fatal(err)
		}
	}
	c := cpu.NewOutOfOrder(proc.AttachContext(0), &cpu.SliceTrace{Instrs: threads[0]}, nil)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cpu.Run(m, []cpu.CPU{c})
	runtime.ReadMemStats(&after)

	instrs := c.Stats().Instructions
	if instrs != uint64(len(threads[0])) {
		t.Fatalf("committed %d instructions, want %d", instrs, len(threads[0]))
	}
	perK := float64(after.Mallocs-before.Mallocs) * 1000 / float64(instrs)
	t.Logf("%s: %d instructions, %d allocations in cpu.Run (%.1f per 1,000 instructions)",
		prof.Name, instrs, after.Mallocs-before.Mallocs, perK)
	if perK > o3RunAllocBudget {
		t.Fatalf("cpu.Run allocates %.1f objects per 1,000 instructions, budget %d", perK, o3RunAllocBudget)
	}
}
