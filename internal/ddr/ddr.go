// Package ddr models a JEDEC DDR4 channel: the baseline the paper
// compares HMC against. The paper's framing needs it twice — DDR4's
// larger pages (512-2048 B vs HMC's 256 B, Section II-C) with an
// open-page policy that rewards locality, and the latency comparison
// in Section IV-E2 ("we estimate the latency impact of a
// packet-switched interface to be about two times higher" than a
// typical DRAM closed-page access). The model is a synchronous
// bus-attached channel: one command/address bus, one 64-bit data bus,
// bank-group-aware banks with open rows, and JEDEC-style timing.
package ddr

import (
	"fmt"

	"hmcsim/internal/sim"
)

// Timing holds the DDR4 channel timing parameters (DDR4-2400-ish,
// JESD79-4 speed bin values rounded to common datasheet numbers).
type Timing struct {
	// TRCD is ACT-to-column delay, TCL the CAS latency, TRP the
	// precharge time, TRAS the minimum row-open time.
	TRCD, TCL, TRP, TRAS sim.Duration
	// TCCDL is the back-to-back column access spacing within a bank
	// group (tCCD_L, the long one). The model spaces every
	// back-to-back burst of an access by it.
	TCCDL sim.Duration
	// TBurst is the data-bus occupancy of one 64 B burst (BL8).
	TBurst sim.Duration
	// CmdOverhead is per-command command/address bus occupancy.
	CmdOverhead sim.Duration
}

// DDR4_2400 returns the default timing set.
func DDR4_2400() Timing {
	return Timing{
		TRCD:        sim.FromNanoseconds(13.75),
		TCL:         sim.FromNanoseconds(13.75),
		TRP:         sim.FromNanoseconds(13.75),
		TRAS:        sim.FromNanoseconds(32),
		TCCDL:       sim.FromNanoseconds(5),
		TBurst:      sim.FromNanoseconds(64.0 / 19.2), // 64 B at 19.2 GB/s
		CmdOverhead: sim.FromNanoseconds(0.83),
	}
}

// Config describes the channel organization.
type Config struct {
	Timing Timing
	// Banks and BankGroups give the bank organization (DDR4: 16
	// banks in 4 groups).
	Banks, BankGroups int
	// PageBytes is the row size (1024 or 2048 B; the paper quotes
	// DDR4 rows of 512-2048 B).
	PageBytes int
	// BurstBytes is the access granularity (64 B, BL8 on a 64-bit bus).
	BurstBytes int
	// ChannelCapacity is the addressable size.
	ChannelCapacity uint64
	// ClosedPage switches the controller to a closed-page policy (for
	// the like-for-like latency comparison the paper makes).
	ClosedPage bool
	// BusTurnaround is the penalty for switching the data bus between
	// reads and writes.
	BusTurnaround sim.Duration
	// FrontEndLatency is the on-chip path before the DRAM command
	// issues (queue, PHY) and BackEndLatency the return path — the
	// synchronous-interface equivalent of the HMC's packet path, far
	// cheaper because JEDEC latencies are deterministic.
	FrontEndLatency, BackEndLatency sim.Duration
}

// DefaultConfig returns an 8 GB DDR4-2400 channel.
func DefaultConfig() Config {
	return Config{
		Timing:          DDR4_2400(),
		Banks:           16,
		BankGroups:      4,
		PageBytes:       1024,
		BurstBytes:      64,
		ChannelCapacity: 8 << 30,
		BusTurnaround:   sim.FromNanoseconds(5),
		FrontEndLatency: sim.FromNanoseconds(15),
		BackEndLatency:  sim.FromNanoseconds(15),
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Banks <= 0 || c.BankGroups <= 0 || c.Banks%c.BankGroups != 0 {
		return fmt.Errorf("ddr: %d banks not divisible into %d groups", c.Banks, c.BankGroups)
	}
	if c.PageBytes <= 0 || c.BurstBytes <= 0 || c.PageBytes%c.BurstBytes != 0 {
		return fmt.Errorf("ddr: page %d not a multiple of burst %d", c.PageBytes, c.BurstBytes)
	}
	if c.ChannelCapacity == 0 {
		return fmt.Errorf("ddr: zero capacity")
	}
	return nil
}

type ddrBank struct {
	srv     sim.Server
	openRow uint64
	hasOpen bool
}

// Channel is the DDR4 channel model.
type Channel struct {
	cfg   Config
	banks []ddrBank
	bus   sim.Server // shared data bus
	cmd   sim.Server // command/address bus

	// deliver schedules completion callbacks through a pooled event
	// (no per-access closure).
	deliver sim.Deliverer[Result]

	lastWasWrite bool

	// Stats.
	accesses  uint64
	rowHits   uint64
	rowMisses uint64
	dataBytes uint64
}

// NewChannel builds a channel on an engine.
func NewChannel(eng *sim.Engine, cfg Config) (*Channel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if eng == nil {
		return nil, fmt.Errorf("ddr: nil engine")
	}
	return &Channel{cfg: cfg, banks: make([]ddrBank, cfg.Banks),
		deliver: sim.NewDeliverer[Result](eng)}, nil
}

// decode maps an address to (bank, row) with bank interleaving on the
// low burst bits: consecutive bursts go to consecutive banks.
func (ch *Channel) decode(addr uint64) (bank int, row uint64) {
	addr %= ch.cfg.ChannelCapacity
	burst := addr / uint64(ch.cfg.BurstBytes)
	bank = int(burst % uint64(ch.cfg.Banks))
	rowSpan := uint64(ch.cfg.PageBytes / ch.cfg.BurstBytes * ch.cfg.Banks)
	row = burst / rowSpan
	return bank, row
}

// Result carries the timing of one completed DDR access.
type Result struct {
	Submit  sim.Time
	Deliver sim.Time
}

// Latency is the access round trip.
func (r Result) Latency() sim.Duration { return r.Deliver - r.Submit }

// Access performs one read or write of size bytes (rounded up to
// whole bursts); done fires at data delivery.
func (ch *Channel) Access(now sim.Time, addr uint64, size int, write bool, done func(Result)) {
	if size <= 0 {
		size = ch.cfg.BurstBytes
	}
	bursts := (size + ch.cfg.BurstBytes - 1) / ch.cfg.BurstBytes
	bank, row := ch.decode(addr)
	b := &ch.banks[bank]
	t := ch.cfg.Timing

	res := Result{Submit: now}
	ch.accesses++
	ch.dataBytes += uint64(bursts * ch.cfg.BurstBytes)

	// Command bus.
	_, cmdEnd := ch.cmd.Reserve(now, t.CmdOverhead)
	start := cmdEnd + ch.cfg.FrontEndLatency

	// Row state machine.
	var access sim.Duration
	if !ch.cfg.ClosedPage && b.hasOpen && b.openRow == row {
		ch.rowHits++
		access = t.TCL
	} else {
		ch.rowMisses++
		access = t.TRP + t.TRCD + t.TCL
		if !b.hasOpen {
			access = t.TRCD + t.TCL // empty bank: no precharge needed
		}
	}
	if ch.cfg.ClosedPage {
		b.hasOpen = false
		// Closed page: every access pays ACT + CAS and precharges
		// after; the precharge overlaps the next gap but holds the
		// bank for TRAS.
		access = t.TRCD + t.TCL
	} else {
		b.hasOpen, b.openRow = true, row
	}

	// Bank occupancy: access latency plus column spacing per burst.
	occ := access + sim.Duration(bursts-1)*t.TCCDL
	if ch.cfg.ClosedPage {
		if min := t.TRAS + t.TRP; occ < min {
			occ = min
		}
	}
	_, bankEnd := b.srv.ReserveAt(now, start, occ)

	// Data bus: bursts back to back, plus a turnaround penalty when
	// the direction flips.
	busTime := sim.Duration(bursts) * t.TBurst
	if write != ch.lastWasWrite {
		busTime += ch.cfg.BusTurnaround
		ch.lastWasWrite = write
	}
	dataReady := bankEnd - sim.Duration(bursts-1)*t.TCCDL // first burst leaves at CAS completion
	_, busEnd := ch.bus.ReserveAt(now, dataReady, busTime)

	res.Deliver = busEnd + ch.cfg.BackEndLatency
	ch.deliver.Deliver(res.Deliver, res, done)
}

// Stats reports access counts and hit rates.
func (ch *Channel) Stats() (accesses, rowHits, rowMisses, dataBytes uint64) {
	return ch.accesses, ch.rowHits, ch.rowMisses, ch.dataBytes
}
