package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"time"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/interconnect"
	"repro/internal/mmu"
	"repro/internal/workload"
)

// The virtual layout workload.Record gives a recorded trace: thread t's
// private heap at recordHeapBase + t<<32, the shared library region at
// recordSharedBase.
const (
	recordHeapBase   = mmu.VAddr(0x4000_0000)
	recordSharedBase = mmu.VAddr(0x7000_0000_0000)
)

// meshInstrs is the per-thread instruction budget of mesh-256, sized so
// one policy's run takes a few host seconds.
const meshInstrs = 2_000

// simWorkload is one simulator workload: the profiles it records, the
// machine each runs on, and the CPU model.
type simWorkload struct {
	profiles []workload.Profile
	config   func(coherence.Policy) core.Config
	inOrder  bool
}

// simInput is one recorded profile, generated once per run outside the
// measured rounds and replayed under every policy.
type simInput struct {
	p       workload.Profile
	threads [][]cpu.Instr
}

// specO3 is the 23 SPEC CPU 2017 profiles at fig7's default instruction
// budget on the 1-core Table V machine with the out-of-order CPU.
func specO3(seed uint64) simWorkload {
	scale := experiments.DefaultParams().Scale
	var ps []workload.Profile
	for i, p := range workload.SPEC2017() {
		p = p.Scale(scale)
		p.Seed = splitmix(seed, uint64(i))
		ps = append(ps, p)
	}
	return simWorkload{
		profiles: ps,
		config: func(pol coherence.Policy) core.Config {
			cfg := core.DefaultConfig(1, pol)
			cfg.Shards = 1
			return cfg
		},
	}
}

// mesh256 is one 256-thread profile on the scaled 256-core machine (16x16
// mesh, 32-cluster two-level directory) with the per-core LLC bank shrunk
// as the scale experiment shrinks it, running the in-order CPU. Threads
// read a shared write-protected library beside their private heaps.
func mesh256(seed uint64) simWorkload {
	p, ok := workload.ProfileByName("swaptions")
	if !ok {
		panic("perfbench: no swaptions profile")
	}
	p.Name = "mesh256"
	p.Threads = 256
	p.Instrs = meshInstrs
	p.BarrierEvery = 0
	p.Seed = splitmix(seed, 0)
	return simWorkload{
		profiles: []workload.Profile{p},
		config: func(pol coherence.Policy) core.Config {
			cfg := core.DefaultScaledConfig(256, pol)
			cfg.L2Bank.SizeBytes = 64 << 10
			cfg.L2Bank.Ways = 8
			cfg.Shards = 1
			return cfg
		},
		inOrder: true,
	}
}

func runSpecO3(b *bench) error  { return runSim(b, specO3(b.seed)) }
func runMesh256(b *bench) error { return runSim(b, mesh256(b.seed)) }

// simRound is everything one round of a simulator workload measured.
type simRound struct {
	wall                           time.Duration
	newMachine, mapT, cpuSetup     time.Duration
	run, check                     time.Duration
	machines                       int
	allocBytes, allocObjs          uint64
	setupAllocBytes, runAllocBytes uint64
	gc                             gcState
	c                              simCounters
	digest                         string
}

// simCounters sums the simulated machine's statistics over a round.
type simCounters struct {
	instrs, cycles, mispredicts, events       uint64
	l1Accesses, l1Hits, l1Fast, l1Slow        uint64
	l1Upgrades, l1Invals                      uint64
	dir                                       coherence.BankStats
	messages, meshMessages, meshHops, dramAcc uint64
	dramRowHits                               uint64
}

func runSim(b *bench, w simWorkload) error {
	var inputs []simInput
	recStart := time.Now()
	for _, p := range w.profiles {
		threads, err := workload.Record(p)
		if err != nil {
			return err
		}
		inputs = append(inputs, simInput{p: p, threads: threads})
	}
	recordMS := float64(time.Since(recStart)) / float64(time.Millisecond)

	ac := newAllocCounter()
	var tr *tracer
	round := func(out *[]simRound) func() time.Duration {
		return func() time.Duration {
			r := simRoundRun(b, w, inputs, ac, tr)
			*out = append(*out, r)
			return r.wall
		}
	}
	untracedBudget, tracedBudget := b.halves()
	var plain, traced []simRound
	rss := startRSSSampler("self")
	loopRounds(untracedBudget, 0, round(&plain))
	rssMB, err := rss.finish()
	if err != nil {
		return err
	}
	var prof *cpuProfile
	if b.traced {
		tr = newTracer()
		if prof, err = startCPUProfile(fmt.Sprintf("%s/cpu-%s-%d.pprof", b.outDir, b.workload, b.seed)); err != nil {
			return err
		}
		loopRounds(tracedBudget, 0, round(&traced))
		prof.stop()
		if err := tr.write(fmt.Sprintf("%s/spans-%s-%d.json", b.outDir, b.workload, b.seed)); err != nil {
			return err
		}
	}

	// Every round replays the same inputs, so every round must reproduce
	// the first one's simulated statistics exactly; at the pinned seed
	// they must also match the recorded digest.
	all := append(append([]simRound(nil), plain...), traced...)
	for i, r := range all {
		b.check(r.digest == all[0].digest, "round %d digest %s differs from round 0 digest %s", i, r.digest, all[0].digest)
	}
	checkDigest(b, all[0].digest)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: digest %s, %d+%d rounds, untraced round walls %.3f s\n",
		b.workload, b.seed, all[0].digest, len(plain), len(traced), seconds(roundWalls(plain)))

	setSimE2E(b, plain, rssMB)
	if b.traced {
		setSimLayers(b, plain, traced, recordMS, prof)
	}
	return nil
}

// simRoundRun runs every input under every paper policy, one job after
// another on this goroutine.
func simRoundRun(b *bench, w simWorkload, inputs []simInput, ac *allocCounter, tr *tracer) simRound {
	var r simRound
	h := sha256.New()
	gc0 := readGC()
	a0, o0 := ac.read()
	start := time.Now()
	roundSpan := tr.add("round", 0, start, start)
	for i := range inputs {
		for _, pol := range coherence.Policies {
			simJob(b, w, &inputs[i], pol, &r, h, ac, tr, roundSpan)
		}
	}
	r.wall = time.Since(start)
	tr.end(roundSpan, start.Add(r.wall))
	a1, o1 := ac.read()
	gc1 := readGC()
	r.allocBytes, r.allocObjs = a1-a0, o1-o0
	r.gc = gcState{cycles: gc1.cycles - gc0.cycles, pauseNS: gc1.pauseNS - gc0.pauseNS}
	r.digest = hex.EncodeToString(h.Sum(nil)[:8])
	return r
}

// simJob builds a fresh machine (caches empty, as in the paper's runs),
// maps the trace's address space, runs it to completion and checks the
// machine's invariants. In traced rounds it also brackets set-up and run
// with allocation reads.
func simJob(b *bench, w simWorkload, in *simInput, pol coherence.Policy, r *simRound, h hash.Hash, ac *allocCounter, tr *tracer, parent int) {
	traced := tr != nil
	var a0, a1, a2 uint64
	if traced {
		a0, _ = ac.read()
	}
	t0 := time.Now()
	m, err := core.NewMachine(w.config(pol))
	if err != nil {
		b.check(false, "%s/%s: new machine: %v", in.p.Name, pol.Name(), err)
		return
	}
	t1 := time.Now()
	proc := m.NewProcess()
	if err := mapRecorded(proc, in.p); err != nil {
		b.check(false, "%s/%s: map: %v", in.p.Name, pol.Name(), err)
		return
	}
	t2 := time.Now()
	cpus := make([]cpu.CPU, len(in.threads))
	for t, instrs := range in.threads {
		ctx := proc.AttachContext(t)
		trace := &cpu.SliceTrace{Instrs: instrs}
		if w.inOrder {
			cpus[t] = cpu.NewInOrder(ctx, trace, nil)
		} else {
			cpus[t] = cpu.NewOutOfOrder(ctx, trace, nil)
		}
	}
	t3 := time.Now()
	if traced {
		a1, _ = ac.read()
	}
	cycles := cpu.Run(m, cpus)
	t4 := time.Now()
	if traced {
		a2, _ = ac.read()
	}
	err = m.CheckInvariants()
	t5 := time.Now()
	b.check(err == nil, "%s/%s: invariants: %v", in.p.Name, pol.Name(), err)

	r.newMachine += t1.Sub(t0)
	r.mapT += t2.Sub(t1)
	r.cpuSetup += t3.Sub(t2)
	r.run += t4.Sub(t3)
	r.check += t5.Sub(t4)
	r.machines++
	r.setupAllocBytes += a1 - a0
	r.runAllocBytes += a2 - a1
	if traced {
		job := tr.add("job "+in.p.Name+"/"+pol.Name(), parent, t0, t5)
		tr.add("core.NewMachine", job, t0, t1)
		tr.add("mmu.map", job, t1, t2)
		tr.add("cpu.setup", job, t2, t3)
		tr.add("cpu.Run", job, t3, t4)
		tr.add("coherence.CheckInvariants", job, t4, t5)
	}
	collect(&r.c, m, cpus, uint64(cycles), in.p.Name, pol.Name(), h)
}

// mapRecorded maps the address space workload.Record laid the trace out
// in: one private heap per thread and the shared write-protected library.
func mapRecorded(proc *core.Process, p workload.Profile) error {
	for t := 0; t < p.Threads; t++ {
		base := recordHeapBase + mmu.VAddr(t)<<32
		if err := proc.AS.MmapFixed(base, p.WorkingSetKB*1024,
			mmu.ProtRead|mmu.ProtWrite, mmu.MapPrivate|mmu.MapAnonymous, nil, 0); err != nil {
			return err
		}
	}
	if p.SharedKB > 0 {
		lib := mmu.NewFile(p.Name+".so", p.Seed^0x5EED)
		return proc.AS.MmapFixed(recordSharedBase, p.SharedKB*1024,
			mmu.ProtRead|mmu.ProtExec, mmu.MapShared, lib, 0)
	}
	return nil
}

// collect adds one finished job's statistics to the round's counters and
// feeds every simulated statistic into the round digest. Host-side
// accounting that a speed-only change may move (fast-path split, event
// count) stays out of the digest.
func collect(c *simCounters, m *core.Machine, cpus []cpu.CPU, cycles uint64, profile, policy string, h hash.Hash) {
	var buf [8]byte
	put := func(vs ...uint64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	}
	h.Write([]byte(profile + "/" + policy + "\x00"))
	put(cycles)
	c.cycles += cycles
	for _, cp := range cpus {
		s := cp.Stats()
		put(s.Instructions, s.Loads, s.Stores, s.Barriers, s.Mispredicts, uint64(s.StartCycle), uint64(s.FinishCycle))
		c.instrs += s.Instructions
		c.mispredicts += s.Mispredicts
	}
	sys := m.Sys
	for _, l1 := range sys.L1s {
		s := l1.Stats
		put(s.Loads, s.Stores, s.LoadHits, s.StoreHits, s.SilentUpgrades, s.ExplicitUpgrades,
			s.Writebacks, s.FwdsServed, s.Invalidations, s.Prefetches)
		c.l1Accesses += s.Loads + s.Stores
		c.l1Hits += s.LoadHits + s.StoreHits
		c.l1Fast += s.FastHits
		c.l1Slow += s.SlowPath
		c.l1Upgrades += s.ExplicitUpgrades
		c.l1Invals += s.Invalidations
	}
	d := sys.BankStatsTotal()
	put(d.Requests, d.LLCServed, d.Forwards, d.MemFetches, d.Invals, d.UpgradeAcks,
		d.Recalls, d.Writebacks, d.QueuedWakeups)
	c.dir.Requests += d.Requests
	c.dir.LLCServed += d.LLCServed
	c.dir.Forwards += d.Forwards
	c.dir.MemFetches += d.MemFetches
	c.dir.Recalls += d.Recalls
	c.dir.QueuedWakeups += d.QueuedWakeups
	msgs := sys.TotalMessages()
	put(msgs)
	c.messages += msgs
	if mesh, ok := sys.Network().(*interconnect.Mesh); ok {
		put(mesh.MessageCount(), mesh.HopsTotal, uint64(mesh.QueuedCycles))
		c.meshMessages += mesh.MessageCount()
		c.meshHops += mesh.HopsTotal
	}
	mem := sys.Mem
	put(mem.Reads, mem.Writes, mem.RowHits, mem.RowMisses, mem.RowConflicts, mem.RefreshStalls,
		uint64(mem.TotalServiceCycles))
	c.dramAcc += mem.RowHits + mem.RowMisses + mem.RowConflicts
	c.dramRowHits += mem.RowHits
	c.events += sys.ExecutedEvents()
}

func roundWalls(rs []simRound) []time.Duration {
	out := make([]time.Duration, len(rs))
	for i, r := range rs {
		out[i] = r.wall
	}
	return out
}

func setSimE2E(b *bench, rounds []simRound, rssMB float64) {
	var walls, setups, rates, allocs []float64
	for _, r := range rounds {
		walls = append(walls, r.wall.Seconds())
		setups = append(setups, (r.newMachine + r.mapT + r.cpuSetup).Seconds())
		rates = append(rates, ratio(float64(r.c.instrs), r.run.Seconds()))
		allocs = append(allocs, float64(r.allocBytes)/(1<<20))
	}
	b.set("wall_s", median(walls))
	b.set("setup_s", median(setups))
	b.set("peak_rss_mb", rssMB)
	b.set("work_per_s", median(rates))
	b.set("alloc_mb", median(allocs))
}

// setSimLayers reports the per-layer figures: headline rates from the
// untraced rounds, layer times from the traced rounds (median over
// rounds), and counts from the first round (every round repeats them).
func setSimLayers(b *bench, plain, traced []simRound, recordMS float64, prof *cpuProfile) {
	med := func(rs []simRound, f func(simRound) float64) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = f(r)
		}
		return median(xs)
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	c := plain[0].c
	kinstr := float64(c.instrs) / 1000

	b.set("rounds", float64(len(plain)+len(traced)))
	b.set("trace.overhead_s", med(traced, func(r simRound) float64 { return r.wall.Seconds() })-
		med(plain, func(r simRound) float64 { return r.wall.Seconds() }))
	b.set("sim_mips", med(plain, func(r simRound) float64 { return ratio(float64(r.c.instrs)/1e6, r.run.Seconds()) }))
	b.set("allocs_per_kinstr", med(plain, func(r simRound) float64 { return ratio(float64(r.allocObjs), kinstr) }))

	b.set("core.machines", float64(plain[0].machines))
	b.set("core.new_machine_ms", med(traced, func(r simRound) float64 { return ms(r.newMachine) }))
	b.set("core.setup_alloc_mb", med(traced, func(r simRound) float64 { return float64(r.setupAllocBytes) / (1 << 20) }))
	b.set("mmu.map_ms", med(traced, func(r simRound) float64 { return ms(r.mapT) }))
	b.set("cpu.setup_ms", med(traced, func(r simRound) float64 { return ms(r.cpuSetup) }))
	b.set("workload.record_ms", recordMS)
	b.set("sim.events", float64(c.events))
	b.set("sim.events_per_instr", ratio(float64(c.events), float64(c.instrs)))
	b.set("sim.ns_per_event", med(traced, func(r simRound) float64 { return ratio(float64(r.run.Nanoseconds()), float64(r.c.events)) }))
	b.set("sim.cycles", float64(c.cycles))
	b.set("cpu.run_ms", med(traced, func(r simRound) float64 { return ms(r.run) }))
	b.set("cpu.instrs", float64(c.instrs))
	b.set("cpu.ipc", ratio(float64(c.instrs), float64(c.cycles)))
	b.set("cpu.mispredicts", float64(c.mispredicts))
	b.set("l1.accesses", float64(c.l1Accesses))
	b.set("l1.hit_ratio", ratio(float64(c.l1Hits), float64(c.l1Accesses)))
	b.set("l1.fast_ratio", ratio(float64(c.l1Fast), float64(c.l1Fast+c.l1Slow)))
	b.set("l1.upgrades", float64(c.l1Upgrades))
	b.set("l1.invalidations", float64(c.l1Invals))
	b.set("dir.requests", float64(c.dir.Requests))
	b.set("dir.llc_served", float64(c.dir.LLCServed))
	b.set("dir.forwards", float64(c.dir.Forwards))
	b.set("dir.mem_fetches", float64(c.dir.MemFetches))
	b.set("dir.recalls", float64(c.dir.Recalls))
	b.set("dir.recalls_per_request", ratio(float64(c.dir.Recalls), float64(c.dir.Requests)))
	b.set("dir.queued_wakeups", float64(c.dir.QueuedWakeups))
	b.set("coherence.check_ms", med(traced, func(r simRound) float64 { return ms(r.check) }))
	b.set("fabric.messages", float64(c.messages))
	b.set("fabric.msgs_per_access", ratio(float64(c.messages), float64(c.l1Accesses)))
	b.set("fabric.avg_hops", ratio(float64(c.meshHops), float64(c.meshMessages)))
	b.set("dram.accesses", float64(c.dramAcc))
	b.set("dram.row_hit_ratio", ratio(float64(c.dramRowHits), float64(c.dramAcc)))
	b.set("gc.cycles", med(traced, func(r simRound) float64 { return float64(r.gc.cycles) }))
	b.set("gc.pause_ms", med(traced, func(r simRound) float64 { return float64(r.gc.pauseNS) / 1e6 }))
	b.set("gc.run_alloc_mb", med(traced, func(r simRound) float64 { return float64(r.runAllocBytes) / (1 << 20) }))
	prof.report(b)
}
