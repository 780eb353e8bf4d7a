//go:build !race

// Allocation-regression tests: the zero-allocation contract of the event
// engine, enforced in CI. Excluded under -race because the race detector
// instruments allocations.

package sim

import "testing"

// selfTicker reschedules itself n times: the steady-state shape of every
// simulation component's clocking loop.
type selfTicker struct {
	e *Engine
	n int
}

func (s *selfTicker) Handle(p Payload) {
	if s.n > 0 {
		s.n--
		s.e.ScheduleEvent(1, s, p)
	}
}

// TestScheduleEventZeroAlloc pins the (schedule, dispatch) cycle of the
// handler-based event API at zero allocations per event.
func TestScheduleEventZeroAlloc(t *testing.T) {
	e := NewEngine()
	tick := &selfTicker{e: e}
	// Warm the bucket free lists.
	tick.n = 2 * ringSize
	e.ScheduleEvent(1, tick, Payload{})
	e.Run()

	allocs := testing.AllocsPerRun(200, func() {
		tick.n = 64
		e.ScheduleEvent(1, tick, Payload{A: 7})
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("ScheduleEvent+dispatch allocates %.1f allocs per 65-event run, want 0", allocs)
	}
}

// TestForEachPendingZeroAlloc pins the pending-queue walk the model
// checker runs once per fingerprint at zero allocations in steady state.
func TestForEachPendingZeroAlloc(t *testing.T) {
	e := NewEngine()
	tick := &selfTicker{e: e}
	for i := 0; i < 40; i++ {
		e.ScheduleEvent(Cycle(i*37), tick, Payload{A: uint64(i)})
	}
	e.ScheduleEvent(3*ringSize, tick, Payload{}) // one in the overflow tier
	var n int
	visit := func(rel Cycle, h Handler, p Payload, isClosure bool) { n++ }
	e.ForEachPending(visit) // first walk sizes the buffer

	allocs := testing.AllocsPerRun(200, func() { e.ForEachPending(visit) })
	if allocs != 0 {
		t.Fatalf("ForEachPending allocates %.1f per walk, want 0", allocs)
	}
	// AllocsPerRun makes one warm-up call besides the 200 it measures.
	if want := 41 * (1 + 1 + 200); n != want {
		t.Fatalf("visited %d events, want %d", n, want)
	}
}

// shardTicker is the sharded selfTicker: it reschedules itself on its own
// shard every cycle and emits a deferred side op (the fire-and-forget
// shared-state path) per event.
type shardTicker struct {
	e *Engine
	n int
}

func (s *shardTicker) Handle(p Payload) {
	if s.n > 0 {
		s.n--
		s.e.ScheduleEvent(1, s, p)
		s.e.DeferOp(p.A, uint64(s.n), 9)
	}
}

// crossPinger ping-pongs an event between two shards at exactly the
// lookahead — the steady-state shape of crossbar traffic.
type crossPinger struct {
	e    *Engine
	dst  int
	peer Handler
	n    int
}

func (c *crossPinger) Handle(p Payload) {
	if c.n > 0 {
		c.n--
		c.e.SendRemote(c.dst, 3, c.peer, p)
	}
}

// globalPinger reschedules a global event from driver context: the
// steady-state shape of stop-the-world work (DRAM fetch issue/install).
type globalPinger struct {
	e *Engine
	n int
}

func (g *globalPinger) Handle(p Payload) {
	if g.n > 0 {
		g.n--
		g.e.ScheduleGlobalEvent(5, g, p)
	}
}

// TestShardedZeroAlloc pins steady-state sharded dispatch at 0 allocs/op:
// after warm-up, a full run's allocations are the fixed per-run driver
// setup (worker goroutines, start channels, WaitGroup) independent of
// event count — thousands of events and hundreds of epoch barriers per
// measured run would land far above the bound if any per-event or
// per-epoch path allocated.
func TestShardedZeroAlloc(t *testing.T) {
	sh := NewSharded(4, 3)
	sh.OnReplayOp(func(Cycle, uint64, uint64, uint8) {})
	ticks := make([]*shardTicker, 4)
	for i := range ticks {
		ticks[i] = &shardTicker{e: sh.Shard(i)}
	}
	ping := &crossPinger{e: sh.Shard(0), dst: 1}
	pong := &crossPinger{e: sh.Shard(1), dst: 0}
	ping.peer, pong.peer = pong, ping
	glob := &globalPinger{e: sh.Shard(2)}

	run := func(n int) {
		for i, s := range ticks {
			s.n = n
			s.e.ScheduleEvent(1, s, Payload{A: uint64(i)})
		}
		ping.n, pong.n = n/4, n/4
		sh.Shard(0).ScheduleEvent(1, ping, Payload{})
		glob.n = n / 8
		sh.Shard(2).ScheduleGlobalEvent(2, glob, Payload{})
		sh.Run()
	}
	// Warm: sweep the clock across the ring three times so every bucket,
	// merge buffer, and the global heap reach steady-state capacity.
	run(3 * ringSize)

	allocs := testing.AllocsPerRun(10, func() { run(2048) })
	if allocs > 64 {
		t.Fatalf("sharded run allocated %.0f times (want fixed per-run driver setup only)", allocs)
	}
}

// TestOverflowSteadyStateZeroAlloc pins the overflow tier: once the heap
// slice has grown, far-future scheduling and migration allocate nothing.
func TestOverflowSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine()
	r := &selfTicker{e: e}
	// Warm the overflow heap's capacity, then every ring bucket's slot
	// (migrated events land in buckets that slide forward each run).
	for i := 0; i < 64; i++ {
		e.ScheduleEvent(ringSize+Cycle(i), r, Payload{})
	}
	e.Run()
	for i := Cycle(0); i < ringSize; i++ {
		e.ScheduleEvent(i, r, Payload{})
	}
	e.Run()

	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 32; i++ {
			e.ScheduleEvent(ringSize+Cycle(i), r, Payload{})
		}
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("overflow schedule+migrate allocates %.1f per run, want 0", allocs)
	}
}
