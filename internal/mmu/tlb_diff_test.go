package mmu

import (
	"slices"
	"testing"

	"repro/internal/sim"
)

// refTLB is a map-based reference TLB: one heap entry per fill, the
// victim found by scanning the map for the minimum LRU stamp. The array
// TLB must be observably identical to it.
type refTLB struct {
	capacity     int
	entries      map[uint64]*tlbEntry
	clock        uint64
	hits, misses uint64
}

func newRefTLB(capacity int) *refTLB {
	return &refTLB{capacity: capacity, entries: map[uint64]*tlbEntry{}}
}

func (r *refTLB) invalidate(v VAddr) { delete(r.entries, vpn(v)) }
func (r *refTLB) flush()             { r.entries = map[uint64]*tlbEntry{} }

func (r *refTLB) translate(as *AddressSpace, v VAddr, isWrite bool) (Result, bool, error) {
	vp := vpn(v)
	if e := r.entries[vp]; e != nil {
		r.clock++
		e.lru = r.clock
		if !isWrite || e.writable {
			r.hits++
			return Result{
				PAddr:          PAddr(e.pfn*PageSize) + PAddr(uint64(v)%PageSize),
				WriteProtected: !e.writable,
			}, true, nil
		}
		r.invalidate(v)
	}
	r.misses++
	res, err := as.Translate(v, isWrite)
	if err != nil {
		return res, false, err
	}
	if len(r.entries) >= r.capacity {
		var victim uint64
		oldest := ^uint64(0)
		for k, e := range r.entries {
			if e.lru < oldest {
				oldest, victim = e.lru, k
			}
		}
		delete(r.entries, victim)
	}
	pte := as.PTEOf(v)
	r.clock++
	r.entries[vp] = &tlbEntry{pfn: pte.PFN, writable: pte.Writable, lru: r.clock}
	return res, false, nil
}

func (r *refTLB) resident() []uint64 {
	var out []uint64
	for k := range r.entries {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

func (t *TLB) resident() []uint64 {
	var out []uint64
	for i := range t.entries {
		out = append(out, t.entries[i].vpn)
	}
	slices.Sort(out)
	return out
}

// diffAddressSpace maps a fixed layout: writable anonymous pages,
// read-only shared file pages (write-protected), and private file pages
// (write-protected until a store copies them), with an unmapped hole
// between regions so some accesses fault.
func diffAddressSpace(t *testing.T) (*AddressSpace, []VAddr) {
	as := NewAddressSpace(NewPhysMem(0x100))
	f := NewFile("lib.so", 3)
	var pages []VAddr
	for _, m := range []struct {
		n     int
		prot  Prot
		flags MapFlags
		file  *File
	}{
		{8, ProtRead | ProtWrite, MapPrivate | MapAnonymous, nil},
		{6, ProtRead, MapShared, f},
		{6, ProtRead | ProtWrite, MapPrivate, f},
	} {
		base, err := as.Mmap(m.n*PageSize, m.prot, m.flags, m.file, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < m.n; i++ {
			pages = append(pages, base+VAddr(i)*PageSize)
		}
		pages = append(pages, base+VAddr(m.n+1)*PageSize) // unmapped
	}
	return as, pages
}

// The array TLB and the map reference, each over its own copy of the
// same address space, see one random stream of translations, page
// invalidations and flushes. After every step they must agree on the
// verdict, the Result, the error, the size, and (on a fill that evicts)
// the victim.
func TestTLBMatchesMapReference(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		asA, pages := diffAddressSpace(t)
		asB, _ := diffAddressSpace(t)
		capacity := 1 + int(seed%6)
		tlb, ref := NewTLB(capacity), newRefTLB(capacity)
		rng := sim.NewRNG(seed)
		for step := 0; step < 4000; step++ {
			v := pages[rng.Intn(len(pages))] + VAddr(rng.Intn(PageSize))
			before := tlb.resident()
			switch k := rng.Intn(100); {
			case k < 8:
				tlb.InvalidatePage(v)
				ref.invalidate(v)
			case k < 10:
				tlb.Flush()
				ref.flush()
			default:
				write := rng.Bool(0.3)
				got, gotHit, gotErr := tlb.Translate(asA, v, write)
				want, wantHit, wantErr := ref.translate(asB, v, write)
				if gotHit != wantHit || got != want || (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("seed %d step %d: translate(%#x, write=%v) = %+v hit=%v err=%v, reference %+v hit=%v err=%v",
						seed, step, uint64(v), write, got, gotHit, gotErr, want, wantHit, wantErr)
				}
			}
			if tlb.Size() != len(ref.entries) {
				t.Fatalf("seed %d step %d: size %d, reference %d", seed, step, tlb.Size(), len(ref.entries))
			}
			if got, want := tlb.resident(), ref.resident(); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: resident pages %x (were %x), reference %x", seed, step, got, before, want)
			}
		}
		if tlb.Hits != ref.hits || tlb.Misses != ref.misses {
			t.Fatalf("seed %d: hits/misses %d/%d, reference %d/%d", seed, tlb.Hits, tlb.Misses, ref.hits, ref.misses)
		}
	}
}
