package main

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

func TestClassifyChargesStacksToModules(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/coherence.(*L1).Handle", "repro/internal/sim.(*Engine).Run"}, "coherence"},
		{[]string{"runtime.memmove", "runtime.growslice", "repro/internal/sim.(*Engine).push"}, "malloc_gc"},
		{[]string{"runtime.memhash64", "runtime.mapaccess2_fast64", "repro/internal/coherence.(*bank).lookup"}, "map"},
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall", "repro/internal/mmu.(*PageTable).Walk"}, "map"},
		{[]string{"sort.insertionSort", "repro/internal/mcheck.(*checker).explore"}, "mcheck"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "malloc_gc"},
		{[]string{"repro/internal/soak.Sweep"}, "other"},
		{[]string{"main.run", "runtime.main"}, "other"},
		{nil, "other"},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestParseTracesReadsStacksLeafFirst(t *testing.T) {
	out := []byte(`File: swiftdir-serve
Type: cpu
Duration: 716.61ms, Total samples = 1.03s (143.73%)
-----------+-------------------------------------------------------
      10ms   runtime.asyncPreempt
             repro/internal/coherence.(*bank).Handle
             repro/internal/coherence.(*System).RunWhile (inline)
-----------+-------------------------------------------------------
     1.02s   repro/internal/sim.(*Engine).popRun
-----------+-------------------------------------------------------
`)
	traces, err := parseTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	want := []trace{
		{10 * time.Millisecond, []string{"runtime.asyncPreempt", "repro/internal/coherence.(*bank).Handle", "repro/internal/coherence.(*System).RunWhile"}},
		{1020 * time.Millisecond, []string{"repro/internal/sim.(*Engine).popRun"}},
	}
	if !reflect.DeepEqual(traces, want) {
		t.Fatalf("parseTraces = %v, want %v", traces, want)
	}
	shares, runtimeBy, total := attribute(traces)
	if total != 1030*time.Millisecond {
		t.Errorf("total = %v, want 1.03s", total)
	}
	if math.Abs(shares["sim"]-100*102.0/103) > 1e-9 || math.Abs(shares["coherence"]-100*1.0/103) > 1e-9 {
		t.Errorf("shares = %v", shares)
	}
	if len(runtimeBy) != 0 {
		t.Errorf("runtimeBy = %v, want none", runtimeBy)
	}
	if _, err := parseTraces([]byte("-----------+---\n  lots   main.f\n")); err == nil {
		t.Error("a block without a time was accepted")
	}
}

func TestRawColumnTotalSumsOneColumn(t *testing.T) {
	out := []byte(`PeriodType: space bytes
Period: 524288
Samples:
alloc_objects/count alloc_space/bytes inuse_objects/count inuse_space/bytes
          1     924248          0          0: 1 2 3 
                bytes:[663552]
         26     534594          0          0: 4 5 6 
                bytes:[20480]
Locations
     1: 0x4a1b2c M=1 runtime.malg :0 s=0
`)
	got, err := rawColumnTotal(out, "alloc_space/bytes")
	if err != nil || got != 924248+534594 {
		t.Errorf("rawColumnTotal = %v, %v; want %d", got, err, 924248+534594)
	}
	if _, err := rawColumnTotal(out, "cpu/nanoseconds"); err == nil {
		t.Error("a missing column was accepted")
	}
}

// TestAttributeReadsARealProfile profiles a busy loop with the runtime's
// own profiler, reads it back through go tool pprof and checks the
// shares add up.
func TestAttributeReadsARealProfile(t *testing.T) {
	p, err := startCPUProfile(filepath.Join(t.TempDir(), "cpu.pprof"))
	if err != nil {
		t.Skip("cpu profiler busy:", err)
	}
	x := 1.0
	for i := 0; i < 60_000_000; i++ {
		x = math.Sqrt(x + float64(i))
	}
	p.stop()
	if p.err != nil {
		t.Fatal(p.err)
	}
	if p.total == 0 {
		t.Skipf("no samples taken (x=%v)", x)
	}
	sum := 0.0
	for _, v := range p.shares {
		sum += v
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Errorf("shares add up to %v%%, want 100%%", sum)
	}
	if p.shares["other"] == 0 {
		t.Errorf("the test's own loop was not charged to other: %v", p.shares)
	}
}

// TestHeapAllocBytesReadsAllocSpace checks the alloc_space total of a
// heap profile grows by roughly what the test allocated.
func TestHeapAllocBytesReadsAllocSpace(t *testing.T) {
	dir := t.TempDir()
	total := func(name string) float64 {
		runtime.GC()
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := pprof.WriteHeapProfile(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		n, err := heapAllocBytes(path)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	before := total("before.heap")
	for i := 0; i < 64; i++ {
		sink = make([]byte, 1<<20)
	}
	grown := total("after.heap") - before
	if grown < 32<<20 || grown > 128<<20 {
		t.Errorf("alloc_space grew by %.0f bytes after allocating 64 MiB", grown)
	}
}

var sink []byte
