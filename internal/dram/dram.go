// Package dram models the main-memory timing of the paper's Table V
// configuration: DDR3_1600_8x8, one channel, two ranks, eight banks per
// rank, 1 KB row buffers, tCAS-tRCD-tRP = 11-11-11 (DRAM clock cycles at
// 800 MHz). The model tracks per-bank open rows and bank/bus occupancy and
// returns the completion time of each block fetch or writeback in CPU
// cycles, so the LLC controller can simply schedule a response at the
// returned cycle.
package dram

import (
	"fmt"

	"repro/internal/sim"
)

// Config describes a DDR3-style memory system. All timing fields are in
// DRAM clock cycles; CPUCyclesPerDRAMCycleNum/Den convert to CPU cycles
// (3 GHz CPU over 800 MHz DRAM = 15/4).
type Config struct {
	Channels     int
	Ranks        int
	BanksPerRank int
	RowBytes     int // row-buffer size per bank
	BlockBytes   int

	TCAS   int // column access strobe latency
	TRCD   int // row-to-column delay (activate)
	TRP    int // row precharge
	TBurst int // data burst occupancy on the channel bus

	// Refresh: every TREFI DRAM cycles the device performs an all-bank
	// refresh lasting TRFC cycles, during which no access may start.
	// TREFI = 0 disables refresh modeling.
	TREFI int
	TRFC  int

	CPUCyclesPerDRAMCycleNum int
	CPUCyclesPerDRAMCycleDen int

	// FrontendLatency is the fixed controller pipeline cost, in CPU
	// cycles, added to every request (queue entry, scheduling, response
	// routing).
	FrontendLatency sim.Cycle
}

// DDR3_1600_8x8 returns the paper's memory configuration.
func DDR3_1600_8x8() Config {
	return Config{
		Channels:                 1,
		Ranks:                    2,
		BanksPerRank:             8,
		RowBytes:                 1024,
		BlockBytes:               64,
		TCAS:                     11,
		TRCD:                     11,
		TRP:                      11,
		TBurst:                   4,    // BL8 on a DDR bus
		TREFI:                    6240, // 7.8 us at 800 MHz
		TRFC:                     208,  // 260 ns for a 4 Gb device
		CPUCyclesPerDRAMCycleNum: 15,
		CPUCyclesPerDRAMCycleDen: 4,
		FrontendLatency:          10,
	}
}

// WithRefresh returns the configuration with DDR3 all-bank refresh
// enabled (tREFI = 7.8 us, tRFC = 260 ns at 800 MHz).
func (c Config) WithRefresh() Config {
	c.TREFI = 6240
	c.TRFC = 208
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Channels <= 0 || c.Ranks <= 0 || c.BanksPerRank <= 0 {
		return fmt.Errorf("dram: non-positive topology %+v", c)
	}
	if c.RowBytes <= 0 || c.BlockBytes <= 0 || c.RowBytes%c.BlockBytes != 0 {
		return fmt.Errorf("dram: row %dB must be a multiple of block %dB", c.RowBytes, c.BlockBytes)
	}
	if c.TCAS <= 0 || c.TRCD <= 0 || c.TRP <= 0 || c.TBurst <= 0 {
		return fmt.Errorf("dram: non-positive timing %+v", c)
	}
	if c.TREFI < 0 || c.TRFC < 0 || (c.TREFI > 0 && c.TRFC >= c.TREFI) {
		return fmt.Errorf("dram: invalid refresh timing tREFI=%d tRFC=%d", c.TREFI, c.TRFC)
	}
	if c.CPUCyclesPerDRAMCycleNum <= 0 || c.CPUCyclesPerDRAMCycleDen <= 0 {
		return fmt.Errorf("dram: invalid clock ratio")
	}
	return nil
}

type bank struct {
	openRow uint64
	hasRow  bool
	freeAt  sim.Cycle // CPU cycles
}

type channel struct {
	banks     []bank
	busFreeAt sim.Cycle
}

// Memory is the timing model. It is not safe for concurrent use; the
// simulator is single-threaded.
type Memory struct {
	cfg      Config
	channels []channel

	// Extra, if non-nil, returns additional controller queueing delay for
	// a request arriving at now — the fault-injection hook (extra refresh
	// and row-conflict stalls). The delay pushes the request's start time,
	// so the perturbed schedule is one the controller could legally
	// produce.
	Extra func(now sim.Cycle, addr uint64, write bool) sim.Cycle

	// Stats
	Reads, Writes            uint64
	RowHits, RowMisses       uint64
	RowConflicts             uint64
	RefreshStalls            uint64
	TotalServiceCycles       sim.Cycle
	MaxObservedLatencyCycles sim.Cycle
}

// New builds a Memory, panicking on invalid static configuration.
func New(cfg Config) *Memory {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Memory{cfg: cfg, channels: make([]channel, cfg.Channels)}
	for i := range m.channels {
		m.channels[i].banks = make([]bank, cfg.Ranks*cfg.BanksPerRank)
	}
	m.Reset()
	return m
}

// Config returns the configuration the memory was built with.
func (m *Memory) Config() Config { return m.cfg }

func (m *Memory) toCPU(dramCycles int) sim.Cycle {
	n := dramCycles*m.cfg.CPUCyclesPerDRAMCycleNum + m.cfg.CPUCyclesPerDRAMCycleDen - 1
	return sim.Cycle(n / m.cfg.CPUCyclesPerDRAMCycleDen)
}

// decode splits a block address into channel, bank (rank-major), and row
// using a row:rank:bank:column interleaving so consecutive blocks hit the
// same row (exploiting spatial locality) and rows stripe across banks.
func (m *Memory) decode(addr uint64) (ch, bk int, row uint64) {
	blk := addr / uint64(m.cfg.BlockBytes)
	blocksPerRow := uint64(m.cfg.RowBytes / m.cfg.BlockBytes)
	rowID := blk / blocksPerRow
	ch = int(rowID % uint64(m.cfg.Channels))
	rowID /= uint64(m.cfg.Channels)
	nbanks := uint64(m.cfg.Ranks * m.cfg.BanksPerRank)
	bk = int(rowID % nbanks)
	row = rowID / nbanks
	return ch, bk, row
}

// AccessAt performs a block read (write=false) or writeback (write=true)
// arriving at CPU cycle now and returns the CPU cycle at which the data is
// available (read) or committed (write).
func (m *Memory) AccessAt(now sim.Cycle, addr uint64, write bool) sim.Cycle {
	chIdx, bkIdx, row := m.decode(addr)
	ch := &m.channels[chIdx]
	b := &ch.banks[bkIdx]

	start := now + m.cfg.FrontendLatency
	if m.Extra != nil {
		start += m.Extra(now, addr, write)
	}
	if b.freeAt > start {
		start = b.freeAt
	}
	start = m.afterRefresh(start)

	var dramLat int
	switch {
	case b.hasRow && b.openRow == row:
		m.RowHits++
		dramLat = m.cfg.TCAS
	case !b.hasRow:
		m.RowMisses++
		dramLat = m.cfg.TRCD + m.cfg.TCAS
	default:
		m.RowConflicts++
		dramLat = m.cfg.TRP + m.cfg.TRCD + m.cfg.TCAS
	}
	b.hasRow = true
	b.openRow = row

	ready := start + m.toCPU(dramLat)

	// The data burst must win the shared channel bus.
	burst := m.toCPU(m.cfg.TBurst)
	busStart := ready
	if ch.busFreeAt > busStart {
		busStart = ch.busFreeAt
	}
	done := busStart + burst
	ch.busFreeAt = done
	b.freeAt = done

	if write {
		m.Writes++
	} else {
		m.Reads++
	}
	lat := done - now
	m.TotalServiceCycles += lat
	if lat > m.MaxObservedLatencyCycles {
		m.MaxObservedLatencyCycles = lat
	}
	return done
}

// afterRefresh pushes a start time out of any all-bank refresh window.
// Windows open at k*tREFI for k >= 1 and last tRFC (both converted to CPU
// cycles).
func (m *Memory) afterRefresh(start sim.Cycle) sim.Cycle {
	if m.cfg.TREFI == 0 {
		return start
	}
	period := m.toCPU(m.cfg.TREFI)
	dur := m.toCPU(m.cfg.TRFC)
	if start < period {
		return start // no refresh has happened yet
	}
	pos := start % period
	if pos < dur {
		m.RefreshStalls++
		return start + (dur - pos)
	}
	return start
}

// AvgLatency returns the mean service latency in CPU cycles, or 0 if no
// accesses occurred.
func (m *Memory) AvgLatency() float64 {
	n := m.Reads + m.Writes
	if n == 0 {
		return 0
	}
	return float64(m.TotalServiceCycles) / float64(n)
}

// Reset clears bank state and statistics in place, as if the memory were
// idle and freshly built. It allocates nothing. The Extra hook is
// configuration, not state, and is kept.
func (m *Memory) Reset() {
	for i := range m.channels {
		ch := &m.channels[i]
		clear(ch.banks)
		ch.busFreeAt = 0
	}
	m.Reads, m.Writes = 0, 0
	m.RowHits, m.RowMisses, m.RowConflicts, m.RefreshStalls = 0, 0, 0, 0
	m.TotalServiceCycles, m.MaxObservedLatencyCycles = 0, 0
}

// AppendFingerprint emits a canonical encoding of the memory controller's
// behaviorally relevant state relative to the CPU cycle now: per bank the
// open row (if any) and the remaining busy window, per channel the
// remaining bus occupancy. Past-due windows normalize to zero, so two
// controllers that will time future requests identically fingerprint
// identically regardless of absolute simulated time. With refresh enabled
// (TREFI > 0) service depends on absolute time as well, so callers that
// need time-translation-invariant fingerprints must disable refresh.
func (m *Memory) AppendFingerprint(now sim.Cycle, emit func(uint64)) {
	rel := func(t sim.Cycle) uint64 {
		if t <= now {
			return 0
		}
		return uint64(t - now)
	}
	for ci := range m.channels {
		ch := &m.channels[ci]
		emit(rel(ch.busFreeAt))
		for bi := range ch.banks {
			b := &ch.banks[bi]
			w := b.openRow << 1
			if b.hasRow {
				w |= 1
			}
			emit(w)
			emit(rel(b.freeAt))
		}
	}
}
