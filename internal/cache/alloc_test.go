//go:build !race

// Allocation-regression tests for the cache array. Excluded under -race
// because the race detector instruments allocations.

package cache

import "testing"

// TestAppendFingerprintZeroAlloc pins the model checker's per-state array
// encoding at zero allocations for associativities up to 16, whose
// victim-order buffer lives on the stack.
func TestAppendFingerprintZeroAlloc(t *testing.T) {
	for _, ways := range []int{1, 4, 16} {
		a := NewArray(Params{Name: "fp", SizeBytes: 64 * ways * 8, Ways: ways, BlockSize: 64})
		for i := 0; i < 8*ways; i++ {
			addr := Addr(i * 64 * 3)
			a.Install(a.Victim(addr), addr, Shared)
		}
		var sum uint64
		emit := func(w uint64) { sum += w }
		if allocs := testing.AllocsPerRun(100, func() { a.AppendFingerprint(emit) }); allocs != 0 {
			t.Fatalf("%d ways: AppendFingerprint allocates %.1f per call, want 0", ways, allocs)
		}
		if sum == 0 {
			t.Fatalf("%d ways: fingerprint emitted nothing", ways)
		}
	}
}
