package mmu

// TLB is a fully associative translation lookaside buffer with LRU
// replacement, matching the paper's 64-entry ITB/DTB (Table V). Entries
// cache the translated frame and the R/W bit so the write-protection
// information reaches the cache hierarchy even on TLB hits without
// re-walking the page table (§IV-B).
type TLB struct {
	capacity int
	entries  []tlbEntry // resident entries in no particular order; made on first fill
	clock    uint64

	Hits, Misses uint64
	Flushes      uint64
}

type tlbEntry struct {
	vpn      uint64
	pfn      uint64
	writable bool
	cow      bool
	lru      uint64
}

// NewTLB builds a TLB with the given entry count.
func NewTLB(entries int) *TLB {
	if entries <= 0 {
		panic("mmu: TLB must have at least one entry")
	}
	return &TLB{capacity: entries}
}

// Capacity returns the entry count.
func (t *TLB) Capacity() int { return t.capacity }

// Size returns the number of resident entries.
func (t *TLB) Size() int { return len(t.entries) }

// find returns the index of vp's entry, or -1.
func (t *TLB) find(vp uint64) int {
	for i := range t.entries {
		if t.entries[i].vpn == vp {
			return i
		}
	}
	return -1
}

func (t *TLB) lookup(vp uint64) *tlbEntry {
	i := t.find(vp)
	if i < 0 {
		return nil
	}
	e := &t.entries[i]
	t.clock++
	e.lru = t.clock
	return e
}

// insert fills vp's translation, replacing the least recently used entry
// when the TLB is full. Every fill and hit takes a fresh clock value, so
// the minimum stamp is unique and the victim does not depend on the
// entries' order.
func (t *TLB) insert(vp uint64, pfn uint64, writable, cow bool) {
	t.clock++
	e := tlbEntry{vpn: vp, pfn: pfn, writable: writable, cow: cow, lru: t.clock}
	if len(t.entries) < t.capacity {
		if t.entries == nil {
			t.entries = make([]tlbEntry, 0, t.capacity)
		}
		t.entries = append(t.entries, e)
		return
	}
	victim := 0
	for i := range t.entries {
		if t.entries[i].lru < t.entries[victim].lru {
			victim = i
		}
	}
	t.entries[victim] = e
}

// InvalidatePage drops the entry for the page containing v, if any.
func (t *TLB) InvalidatePage(v VAddr) {
	if i := t.find(vpn(v)); i >= 0 {
		last := len(t.entries) - 1
		t.entries[i] = t.entries[last]
		t.entries = t.entries[:last]
	}
}

// Flush empties the TLB.
func (t *TLB) Flush() {
	t.entries = t.entries[:0]
	t.Flushes++
}

// Translate performs the full MMU path for one access: TLB lookup, page
// walk on miss, protection handling, and TLB fill. The returned Result's
// WriteProtected field is the R/W bit the coherence controller consumes;
// TLBHit is reported separately for timing.
func (t *TLB) Translate(as *AddressSpace, v VAddr, isWrite bool) (Result, bool, error) {
	vp := vpn(v)
	if e := t.lookup(vp); e != nil {
		if !isWrite || e.writable {
			t.Hits++
			return Result{
				PAddr:          PAddr(e.pfn*PageSize) + PAddr(uint64(v)%PageSize),
				WriteProtected: !e.writable,
			}, true, nil
		}
		// Write to a write-protected cached translation: the hardware
		// raises a fault; the handler (Translate below) performs CoW or
		// rejects, and the stale entry must be shot down.
		t.InvalidatePage(v)
	}
	t.Misses++
	res, err := as.Translate(v, isWrite)
	if err != nil {
		return res, false, err
	}
	pte := as.PTEOf(v)
	t.insert(vp, pte.PFN, pte.Writable, pte.CoW)
	return res, false, nil
}
