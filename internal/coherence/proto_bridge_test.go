package coherence

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/proto"
)

// TestProtoEventAlignment: every MsgKind converts to the proto event with
// the identical canonical name, and Load/Store map to the CPU events.
// This is the contract that lets the bridge convert with a cast.
func TestProtoEventAlignment(t *testing.T) {
	for k := MsgGETS; k <= MsgDataFromOwner; k++ {
		if got, want := protoEvent(k).String(), k.String(); got != want {
			t.Errorf("MsgKind %d: proto event %q != msg kind %q", k, got, want)
		}
	}
	if int(MsgDataFromOwner)+1 != int(proto.NumEvents)-2 {
		t.Errorf("event count skew: %d message kinds vs %d proto events (2 CPU)",
			int(MsgDataFromOwner)+1, proto.NumEvents)
	}
	if cpuEvent(false) != proto.EvLoad || cpuEvent(true) != proto.EvStore {
		t.Error("cpuEvent mapping broken")
	}
	if proto.EvLoad.String() != "Load" || proto.EvStore.String() != "Store" {
		t.Error("CPU event names diverge from the observation vocabulary")
	}
}

// TestProtoStateAlignment: line states, transient states and directory
// states convert by cast/offset, and the proto labels equal the ones the
// controllers print (dumps, mcheck pairs, transcripts all share them).
func TestProtoStateAlignment(t *testing.T) {
	lineStates := []cache.LineState{
		cache.Invalid, cache.Shared, cache.Exclusive,
		cache.Modified, cache.Owned, cache.Forward,
	}
	wantL1 := []proto.L1State{proto.L1I, proto.L1S, proto.L1E, proto.L1M, proto.L1O, proto.L1F}
	for i, ls := range lineStates {
		if proto.L1State(ls) != wantL1[i] {
			t.Errorf("cache.%v = %d, proto.%v = %d", ls, ls, wantL1[i], wantL1[i])
		}
	}
	for tr := TrISD; tr <= TrEMA; tr++ {
		ps := proto.L1ISD + proto.L1State(tr)
		if ps.String() != tr.String() {
			t.Errorf("Transient %d: proto label %q != controller label %q",
				tr, ps.String(), tr.String())
		}
	}
	dirStates := []DirState{
		DirInvalid, DirPresent, DirShared, DirExclusive, DirModifiedL1, DirOwned,
	}
	wantDir := []proto.DirState{
		proto.DirI, proto.DirP, proto.DirS, proto.DirE, proto.DirM, proto.DirO,
	}
	for i, ds := range dirStates {
		if proto.DirState(ds) != wantDir[i] {
			t.Errorf("DirState %v = %d, proto %v = %d", ds, ds, wantDir[i], wantDir[i])
		}
		if proto.DirState(ds).String() != ds.String() {
			t.Errorf("DirState %v: proto label %q != controller label %q",
				ds, proto.DirState(ds).String(), ds.String())
		}
	}
}
