// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine is the substrate every timed component in this repository is
// built on: cache controllers, the directory, the DRAM model, and the CPU
// models all schedule work at future cycles and the engine executes it in
// (cycle, insertion-order) order. Determinism is guaranteed by a
// monotonically increasing sequence number that breaks ties between events
// scheduled for the same cycle, so two runs with the same inputs produce
// identical event interleavings and therefore identical statistics.
//
// Two scheduling interfaces coexist:
//
//   - Schedule/ScheduleAt take a closure. Convenient, but every capturing
//     closure is a heap allocation at the call site.
//   - ScheduleEvent/ScheduleEventAt take a (Handler, Payload) pair: the
//     handler is a long-lived component (an L1 controller, an LLC bank)
//     and the payload is a fixed-size value struct carried inside the
//     event slot, so scheduling allocates nothing in steady state.
//
// Storage is a calendar queue: a ring of per-cycle FIFO buckets covering
// the near future, with a slice-backed binary min-heap as the overflow
// tier for events more than ringSize cycles out. Ring events live in one
// engine-owned slab; each bucket is an intrusive singly linked list of
// slab slots (head and tail index), and executed slots are zeroed and
// pushed on an index free list. The slab grows on first use and is then
// recycled, so a fresh engine pays for its peak pending-event count once
// rather than once per bucket, and steady-state execution performs no
// allocation and no interface boxing.
package sim

import (
	"fmt"
	"math/bits"
)

// Cycle is a point in simulated time, measured in processor clock cycles.
type Cycle uint64

// Payload is the fixed-size argument carried by a handler-based event.
// Components pack their message or request state into it (see
// coherence.Msg's codec) instead of capturing it in a closure. Field
// meaning is owner-defined; Op conventionally discriminates the action
// when one handler serves several event types.
type Payload struct {
	A, B    uint64
	X, Y, Z int32
	K, F    uint8
	Aux, Op uint8
}

// Handler consumes payload-carrying events. Implementations are long-lived
// simulation components; the interface value in the event slot is a plain
// pointer, so scheduling through a Handler never allocates.
type Handler interface {
	Handle(p Payload)
}

// event is a unit of scheduled work: either a closure (fn) or a
// (handler, payload) pair. next links a ring event to the following slab
// slot of its bucket; it is meaningless in the overflow heap and in a
// bucket's tail slot.
type event struct {
	when Cycle
	seq  uint64
	fn   func()
	h    Handler
	p    Payload
	next int32
}

const (
	// ringBits sizes the near-future calendar ring. 1024 cycles covers
	// every protocol hop and the DRAM access window, so in practice only
	// refresh-scale timers hit the overflow tier.
	ringBits = 10
	ringSize = 1 << ringBits
	ringMask = ringSize - 1
	ringWord = ringSize / 64
)

// bucket is the FIFO of events for one cycle of the near-future ring: a
// linked list of slab slots from head (next to run) to tail (last
// scheduled). The occupancy bit alone says whether the bucket is empty;
// head and tail are stale while it is clear.
type bucket struct {
	head, tail int32
}

// Engine is a single-threaded discrete-event simulator. The zero value is
// ready to use; time starts at cycle 0.
type Engine struct {
	now      Cycle
	seq      uint64
	executed uint64
	pending  int

	ring [ringSize]bucket
	occ  [ringWord]uint64 // occupancy bitmap: bit i set iff ring[i] has unexecuted events

	// slab stores every ring event; free stacks the indexes of its zeroed,
	// unused slots.
	slab []event
	free []int32

	// overflow holds events scheduled >= ringSize cycles out, as a binary
	// min-heap ordered by (when, seq). Events migrate into the ring as the
	// current cycle advances and their horizon opens.
	overflow []event

	// pendBuf is ForEachPendingAbs's collection buffer, kept so repeated
	// walks (one per model-checker fingerprint) allocate nothing.
	pendBuf []event

	// wd is the armed liveness watchdog, or nil. See watchdog.go. Kept as
	// a single pointer so the disarmed hot path pays one nil check.
	wd *watchdog
}

// NewEngine returns an engine with time set to cycle 0.
func NewEngine() *Engine { return &Engine{} }

// Reset returns the engine to the state NewEngine leaves it in — cycle 0,
// no pending events, zeroed counters, no watchdog or cancellation token
// armed — while keeping the slab's and the overflow heap's capacity, so a
// reused engine allocates nothing to get back to steady state.
func (e *Engine) Reset() {
	clear(e.occ[:])
	clear(e.slab)
	e.slab = e.slab[:0]
	e.free = e.free[:0]
	clear(e.overflow)
	e.overflow = e.overflow[:0]
	e.now, e.seq, e.executed, e.pending = 0, 0, 0, 0
	e.wd = nil
}

// Now returns the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// Pending reports the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.pending }

// Executed returns the total number of events the engine has run.
func (e *Engine) Executed() uint64 { return e.executed }

// Schedule enqueues fn to run delay cycles from now. A delay of zero runs
// fn later in the current cycle, after all previously scheduled events for
// this cycle.
func (e *Engine) Schedule(delay Cycle, fn func()) {
	if fn == nil {
		panic("sim: Schedule called with nil function")
	}
	e.seq++
	e.pending++
	e.insert(event{when: e.now + delay, seq: e.seq, fn: fn})
}

// ScheduleAt enqueues fn at an absolute cycle, which must not be in the
// past. when == Now() is valid and runs later in the current cycle.
func (e *Engine) ScheduleAt(when Cycle, fn func()) {
	if when < e.now {
		panic(fmt.Sprintf("sim: ScheduleAt(%d) in the past (now=%d)", when, e.now))
	}
	e.Schedule(when-e.now, fn)
}

// ScheduleEvent enqueues a (handler, payload) event delay cycles from now.
// This is the zero-allocation path: the payload is stored by value in the
// event slot and the handler is an existing component pointer.
func (e *Engine) ScheduleEvent(delay Cycle, h Handler, p Payload) {
	if h == nil {
		panic("sim: ScheduleEvent called with nil handler")
	}
	e.seq++
	e.pending++
	e.insert(event{when: e.now + delay, seq: e.seq, h: h, p: p})
}

// ScheduleEventAt is ScheduleEvent at an absolute cycle, which must not be
// in the past.
func (e *Engine) ScheduleEventAt(when Cycle, h Handler, p Payload) {
	if when < e.now {
		panic(fmt.Sprintf("sim: ScheduleEventAt(%d) in the past (now=%d)", when, e.now))
	}
	e.ScheduleEvent(when-e.now, h, p)
}

// insert routes an event to the ring (near future) or the overflow heap.
func (e *Engine) insert(ev event) {
	if ev.when-e.now < ringSize {
		e.enqueueNear(ev)
	} else {
		e.overflowPush(ev)
	}
}

// enqueueNear appends ev to its cycle's bucket, in a recycled slab slot
// when one is free.
func (e *Engine) enqueueNear(ev event) {
	var s int32
	if n := len(e.free); n > 0 {
		s = e.free[n-1]
		e.free = e.free[:n-1]
		e.slab[s] = ev
	} else {
		s = int32(len(e.slab))
		e.slab = append(e.slab, ev)
	}
	idx := uint32(ev.when) & ringMask
	b := &e.ring[idx]
	if bit := uint64(1) << (idx & 63); e.occ[idx>>6]&bit == 0 {
		e.occ[idx>>6] |= bit
		b.head = s
	} else {
		e.slab[b.tail].next = s
	}
	b.tail = s
}

// nextTime returns the timestamp of the earliest pending event. Ring
// events are always earlier than overflow events (the overflow tier holds
// only events >= now+ringSize), so the ring is scanned first via the
// occupancy bitmap.
func (e *Engine) nextTime() (Cycle, bool) {
	if e.pending == 0 {
		return 0, false
	}
	if d, ok := e.scanRing(); ok {
		return e.now + Cycle(d), true
	}
	if len(e.overflow) > 0 {
		return e.overflow[0].when, true
	}
	return 0, false
}

// scanRing finds the circular distance from now to the first occupied
// bucket, scanning the bitmap one word at a time.
func (e *Engine) scanRing() (uint32, bool) {
	start := uint32(e.now) & ringMask
	w := start >> 6
	off := start & 63
	// First (partial) word: bits at or after the start position.
	if word := e.occ[w] >> off; word != 0 {
		return uint32(bits.TrailingZeros64(word)), true
	}
	// Remaining words in circular order, including the wrapped start word
	// (its low bits cover the farthest cycles of the horizon).
	for i := uint32(1); i <= ringWord; i++ {
		cw := (w + i) & (ringWord - 1)
		word := e.occ[cw]
		if i == ringWord {
			word &= (1 << off) - 1 // only bits before start remain
		}
		if word != 0 {
			dist := i*64 - off + uint32(bits.TrailingZeros64(word))
			return dist, true
		}
	}
	return 0, false
}

// advanceTo moves simulated time forward and migrates overflow events
// whose horizon opened into the ring. Migration pops in (when, seq) order,
// so same-cycle overflow events land in their bucket in sequence order,
// ahead of any event scheduled for that cycle afterwards (which, by
// monotonicity of seq, is younger).
func (e *Engine) advanceTo(t Cycle) {
	if t == e.now {
		return
	}
	e.now = t
	for len(e.overflow) > 0 && e.overflow[0].when-t < ringSize {
		e.enqueueNear(e.overflowPop())
	}
}

// popRun executes the next event of the current cycle's bucket. The
// executed slot is zeroed and freed before the event runs, so no
// fn/handler reference outlives its event and a delay-0 event the handler
// schedules may reuse it.
func (e *Engine) popRun() {
	idx := uint32(e.now) & ringMask
	b := &e.ring[idx]
	s := b.head
	ev := e.slab[s]
	e.slab[s] = event{}
	e.free = append(e.free, s)
	if s == b.tail {
		e.occ[idx>>6] &^= 1 << (idx & 63)
	} else {
		b.head = ev.next
	}
	e.pending--
	e.executed++
	if ev.fn != nil {
		ev.fn()
	} else {
		ev.h.Handle(ev.p)
	}
	if e.wd != nil {
		e.checkWatchdog()
	}
}

// step executes the single earliest event. It reports false if the queue
// is empty.
func (e *Engine) step() bool {
	t, ok := e.nextTime()
	if !ok {
		return false
	}
	e.advanceTo(t)
	e.popRun()
	return true
}

// Step executes the single earliest pending event, advancing the clock to
// its timestamp, and reports whether an event ran. It is the model
// checker's scheduling primitive: exploring every interleaving of
// externally injected work between individual engine events enumerates
// every schedule the deterministic engine can produce.
func (e *Engine) Step() bool { return e.step() }

// ForEachPending visits every pending event in execution order — (when,
// seq), the order Run would execute them — reporting each event's delay
// relative to Now, its handler and payload, and whether it is a closure
// event (closure events carry no inspectable payload). The engine must not
// be mutated during iteration. Model checkers use this to fold the event
// queue into a canonical state fingerprint.
func (e *Engine) ForEachPending(fn func(rel Cycle, h Handler, p Payload, isClosure bool)) {
	e.ForEachPendingAbs(func(when Cycle, _ uint64, h Handler, p Payload, isClosure bool) {
		fn(when-e.now, h, p, isClosure)
	})
}

// ForEachPendingAbs is ForEachPending reporting absolute timestamps and
// sequence keys instead of relative delays: (when, key) is the exact
// order Run would execute the events in.
func (e *Engine) ForEachPendingAbs(fn func(when Cycle, key uint64, h Handler, p Payload, isClosure bool)) {
	if e.pending == 0 {
		return
	}
	// Take the buffer for the duration of the walk, so a callback that
	// walks the queue again gets its own instead of clobbering this one.
	evs := e.pendBuf[:0]
	e.pendBuf = nil
	for w := range e.occ {
		for word := e.occ[w]; word != 0; word &= word - 1 {
			b := &e.ring[w<<6+bits.TrailingZeros64(word)]
			for s := b.head; ; s = e.slab[s].next {
				evs = append(evs, e.slab[s])
				if s == b.tail {
					break
				}
			}
		}
	}
	evs = append(evs, e.overflow...)
	sortEvents(evs)
	for i := range evs {
		ev := &evs[i]
		fn(ev.when, ev.seq, ev.h, ev.p, ev.fn != nil)
	}
	clear(evs) // drop the copied fn/handler references
	e.pendBuf = evs[:0]
}

// sortEvents orders events by (when, seq) with a simple insertion sort:
// pending queues are small (tens of events) whenever ForEachPending is
// used, and avoiding package sort keeps the event type fully unexported.
func sortEvents(evs []event) {
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && eventLess(&evs[j], &evs[j-1]); j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
}

// Run executes events until the queue drains and returns the final cycle.
func (e *Engine) Run() Cycle {
	for e.step() {
	}
	return e.now
}

// RunUntil executes events with timestamps <= limit. Events scheduled
// beyond limit remain queued. It returns the current cycle, which is
// min(limit, time of last executed event) or the prior now if nothing ran.
func (e *Engine) RunUntil(limit Cycle) Cycle {
	for {
		t, ok := e.nextTime()
		if !ok || t > limit {
			break
		}
		e.advanceTo(t)
		e.popRun()
	}
	if e.now < limit && e.pending > 0 {
		// Advance logical time to the limit so callers observe a
		// consistent clock even if no event landed exactly on it.
		e.advanceTo(limit)
	}
	return e.now
}

// RunFor executes events for the next d cycles.
func (e *Engine) RunFor(d Cycle) Cycle { return e.RunUntil(e.now + d) }

// RunTo is RunUntil with an unconditional clock advance: after executing
// every event with timestamp <= t, the clock lands exactly on t even if
// the queue drained first. Synchronous callers that complete work without
// scheduling events (the coherence fast path) use it so simulated time
// passes identically to the event path.
func (e *Engine) RunTo(t Cycle) Cycle {
	e.RunUntil(t)
	if e.now < t {
		e.advanceTo(t)
	}
	return e.now
}

// RunWhile executes events while cond returns true and events remain.
// It returns the final cycle.
func (e *Engine) RunWhile(cond func() bool) Cycle {
	for cond() && e.step() {
	}
	return e.now
}

// MaxEventsExceeded is returned (as a panic message prefix) by RunBounded.
const maxEventsMsg = "sim: event budget exhausted (possible livelock)"

// RunBounded executes up to maxEvents events; it panics if the budget is
// exhausted while events remain, which in this codebase always indicates a
// protocol livelock. It returns the final cycle.
func (e *Engine) RunBounded(maxEvents uint64) Cycle {
	var n uint64
	for e.step() {
		n++
		if n >= maxEvents && e.pending > 0 {
			panic(maxEventsMsg)
		}
	}
	return e.now
}

// --- overflow tier: slice-backed binary min-heap on (when, seq) ----------

func eventLess(a, b *event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

func (e *Engine) overflowPush(ev event) {
	h := append(e.overflow, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(&h[i], &h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.overflow = h
}

func (e *Engine) overflowPop() event {
	h := e.overflow
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // zero the vacated slot: no retained fn/handler refs
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && eventLess(&h[l], &h[small]) {
			small = l
		}
		if r < n && eventLess(&h[r], &h[small]) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	e.overflow = h
	return top
}
