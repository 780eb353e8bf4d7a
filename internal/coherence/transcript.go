package coherence

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/proto"
)

// TransitionRecorder captures every observed controller transition as a
// canonical text line:
//
//	L1(1)  0x000040  S     <- Store             -> SM^A   [StoreShared]
//	Dir    0x000040  DirS  <- Upgrade           -> DirBusy [UpgradeS]
//
// and cross-checks each against the policy's canonical table while
// recording: the (state, event) pair must be Defined or Defensive
// (defensive lines are tagged), and the post-transition state must be
// inside the entry's next-state mask. Violations land in Errs instead of
// panicking so a golden run reports every divergence at once.
//
// The recorder brackets transitions with the System Observe/ObservePost
// hook pairs, which unwind LIFO when processing nests (a data grant
// synchronously replaying a merged store), so a simple stack suffices.
type TransitionRecorder struct {
	sys   *System
	tab   *proto.Table
	stack []recFrame
	Lines []string
	Errs  []string
}

type recFrame struct {
	dir   bool
	id    int
	addr  cache.Addr
	l1St  proto.L1State
	dirSt proto.DirState
	ev    proto.Event
}

// AttachRecorder wires a recorder into sys's four observation hooks.
func AttachRecorder(sys *System) *TransitionRecorder {
	tr := &TransitionRecorder{sys: sys, tab: sys.Policy.Table()}
	sys.Observe = tr.preMsg
	sys.ObservePost = tr.postMsg
	sys.ObserveCPU = tr.preCPU
	sys.ObserveCPUPost = tr.postCPU
	return tr
}

func (tr *TransitionRecorder) preMsg(m Msg, dst int) {
	f := recFrame{addr: m.Addr, ev: protoEvent(m.Kind)}
	if dst == DirID {
		f.dir = true
		f.dirSt = tr.sys.bankFor(m.Addr).protoDirState(m.Addr)
	} else {
		f.id = dst
		f.l1St = tr.sys.L1s[dst].protoState(m.Addr)
	}
	tr.stack = append(tr.stack, f)
}

func (tr *TransitionRecorder) preCPU(port int, block cache.Addr, write bool) {
	tr.stack = append(tr.stack, recFrame{
		id: port, addr: block, ev: cpuEvent(write),
		l1St: tr.sys.L1s[port].protoState(block),
	})
}

func (tr *TransitionRecorder) postMsg(m Msg, dst int) {
	f := tr.pop(dst == DirID, max(dst, 0), m.Addr, protoEvent(m.Kind))
	if f == nil {
		return
	}
	tr.emit(*f)
}

func (tr *TransitionRecorder) postCPU(port int, block cache.Addr, write bool) {
	f := tr.pop(false, port, block, cpuEvent(write))
	if f == nil {
		return
	}
	tr.emit(*f)
}

// pop unwinds the top frame, verifying the LIFO bracketing.
func (tr *TransitionRecorder) pop(dir bool, id int, addr cache.Addr, ev proto.Event) *recFrame {
	if len(tr.stack) == 0 {
		tr.errf("post hook for %v with an empty bracket stack", ev)
		return nil
	}
	f := tr.stack[len(tr.stack)-1]
	tr.stack = tr.stack[:len(tr.stack)-1]
	if f.dir != dir || (!dir && f.id != id) || f.addr != addr || f.ev != ev {
		tr.errf("post hook mismatch: bracketed %+v, closing (dir=%v id=%d addr=%#x ev=%v)",
			f, dir, id, addr, ev)
		return nil
	}
	return &f
}

// emit validates the finished transition against the table and appends
// its canonical line.
func (tr *TransitionRecorder) emit(f recFrame) {
	var who, state, next, action string
	var class proto.Class
	var nextOK bool
	if f.dir {
		who = "Dir"
		post := tr.sys.bankFor(f.addr).protoDirState(f.addr)
		ent := tr.tab.Dir[f.dirSt][f.ev]
		state, next = f.dirSt.String(), post.String()
		action, class = ent.Act.String(), ent.Class
		nextOK = proto.HasDir(ent.Next, post)
	} else {
		who = fmt.Sprintf("L1(%d)", f.id)
		post := tr.sys.L1s[f.id].protoState(f.addr)
		ent := tr.tab.L1[f.l1St][f.ev]
		state, next = f.l1St.String(), post.String()
		action, class = ent.Act.String(), ent.Class
		nextOK = proto.HasL1(ent.Next, post)
	}
	tag := ""
	switch class {
	case proto.Defined:
	case proto.Defensive:
		tag = " (defensive)"
	default:
		tr.errf("%s %#x: (%s, %v) is %v in the %s table",
			who, f.addr, state, f.ev, class, tr.tab.Policy)
	}
	if !nextOK && (class == proto.Defined || class == proto.Defensive) {
		tr.errf("%s %#x: (%s, %v) -> %s outside the next-state mask",
			who, f.addr, state, f.ev, next)
	}
	tr.Lines = append(tr.Lines, fmt.Sprintf("%-6s %#08x  %-5s <- %-17s -> %-5s  [%s]%s",
		who, uint64(f.addr), state, f.ev, next, action, tag))
}

func (tr *TransitionRecorder) errf(format string, args ...any) {
	tr.Errs = append(tr.Errs, fmt.Sprintf(format, args...))
}
