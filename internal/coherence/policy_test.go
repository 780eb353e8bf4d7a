package coherence

import "testing"

// TestPolicyDecisions pins every policy's Table IV decisions, for plain
// (wp=false) and write-protected (wp=true) data, as a literal table. Each
// two-letter string gives the answer at wp=false then wp=true (T/F); a
// new policy must add its row here.
func TestPolicyDecisions(t *testing.T) {
	want := []struct {
		name string
		// SilentUpgrade, GrantExclusiveOnLoad, ServeExclusiveFromLLC and
		// ForwardStateFor, each at wp=false then wp=true.
		silent, grantE, llcServeE, forward string
		loadWP                             MsgKind // LoadRequest(true); LoadRequest(false) is always GETS
		owned                              bool    // OwnershipTransfer
	}{
		{"MESI", "TT", "TT", "FF", "FF", MsgGETS, false},
		{"SwiftDir", "TT", "TF", "FF", "FF", MsgGETSWP, false},
		{"S-MESI", "FF", "TT", "TT", "FF", MsgGETS, false},
		{"SwiftDir-Ewp", "TF", "TT", "FT", "FF", MsgGETSWP, false},
		{"MOESI", "TT", "TT", "FF", "FF", MsgGETS, true},
		{"SwiftDir-MOESI", "TT", "TF", "FF", "FF", MsgGETSWP, true},
		{"MESIF", "TT", "TT", "FF", "TT", MsgGETS, false},
		{"SwiftDir-MESIF", "TT", "TF", "FF", "TF", MsgGETSWP, false},
		{"MSI", "FF", "FF", "FF", "FF", MsgGETS, false},
		{"Phase-Priority", "TT", "TT", "FF", "FF", MsgGETS, false},
	}
	if len(want) != len(ExtendedPolicies) {
		t.Fatalf("%d pinned rows for %d policies", len(want), len(ExtendedPolicies))
	}
	tf := func(b bool) byte {
		if b {
			return 'T'
		}
		return 'F'
	}
	for i, w := range want {
		p := ExtendedPolicies[i]
		if p.Name() != w.name {
			t.Fatalf("ExtendedPolicies[%d] = %s, pinned row is %s", i, p.Name(), w.name)
		}
		for _, d := range []struct {
			what string
			f    func(bool) bool
			want string
		}{
			{"SilentUpgrade", p.SilentUpgrade, w.silent},
			{"GrantExclusiveOnLoad", p.GrantExclusiveOnLoad, w.grantE},
			{"ServeExclusiveFromLLC", p.ServeExclusiveFromLLC, w.llcServeE},
			{"ForwardStateFor", p.ForwardStateFor, w.forward},
		} {
			if got := string([]byte{tf(d.f(false)), tf(d.f(true))}); got != d.want {
				t.Errorf("%s: %s(false, true) = %s, want %s", p.Name(), d.what, got, d.want)
			}
		}
		if got := p.LoadRequest(false); got != MsgGETS {
			t.Errorf("%s: LoadRequest(false) = %v, want GETS", p.Name(), got)
		}
		if got := p.LoadRequest(true); got != w.loadWP {
			t.Errorf("%s: LoadRequest(true) = %v, want %v", p.Name(), got, w.loadWP)
		}
		if got := p.OwnershipTransfer(); got != w.owned {
			t.Errorf("%s: OwnershipTransfer() = %v, want %v", p.Name(), got, w.owned)
		}
	}
}

// TestPhasePriorityQueueOrder pins the bank's queue discipline: FIFO
// under every policy but Phase-Priority, which inserts by queueClass
// (Upgrade < GETX < loads < evictions) without letting a request overtake
// an earlier one from the same source.
func TestPhasePriorityQueueOrder(t *testing.T) {
	arrivals := []Msg{
		{Kind: MsgGETS, Src: 1},
		{Kind: MsgGETX, Src: 2},
		{Kind: MsgUpgrade, Src: 3},
		{Kind: MsgPUTX, Src: 0},
		{Kind: MsgGETX, Src: 0}, // stays behind its own PUTX
		{Kind: MsgGETSWP, Src: 2},
	}
	for _, tc := range []struct {
		p          Policy
		order      []int // arrival indices in queue order
		promotions uint64
	}{
		{MESI, []int{0, 1, 2, 3, 4, 5}, 0},
		{PhasePriority, []int{2, 1, 0, 3, 4, 5}, 2},
	} {
		s := MustNewSystem(testConfig(tc.p, 4))
		b := s.banks[0]
		txn := b.newTxn(Msg{Kind: MsgGETX, Src: 3})
		for _, m := range arrivals {
			b.enqueue(txn, m)
		}
		for i, want := range tc.order {
			if got := txn.queued[i]; got != arrivals[want] {
				t.Errorf("%s: queue[%d] = %v from %d, want %v from %d",
					tc.p.Name(), i, got.Kind, got.Src, arrivals[want].Kind, arrivals[want].Src)
			}
		}
		if got := s.ArbPromotions(); got != tc.promotions {
			t.Errorf("%s: ArbPromotions = %d, want %d", tc.p.Name(), got, tc.promotions)
		}
	}
}
