package mem

import (
	"fmt"

	"hmcsim/internal/ddr"
	"hmcsim/internal/sim"
)

// DDRConfig describes a DDR4 backend: one or more identical channels
// with block interleaving, the conventional-memory counterpart of the
// HMC's vault parallelism.
type DDRConfig struct {
	// Channel is the per-channel organization (default
	// ddr.DefaultConfig).
	Channel ddr.Config
	// Channels is the channel count (default 1). Multi-channel
	// configurations interleave consecutive blocks across channels,
	// giving DDR the port-level parallelism parity a multi-tenant
	// comparison needs.
	Channels int
	// InterleaveBytes is the interleave granularity (default 256 B —
	// one HMC page, so cross-backend footprints shard comparably).
	InterleaveBytes int
}

func (c DDRConfig) withDefaults() DDRConfig {
	if c.Channel.BurstBytes == 0 {
		c.Channel = ddr.DefaultConfig()
	}
	if c.Channels == 0 {
		c.Channels = 1
	}
	if c.InterleaveBytes == 0 {
		c.InterleaveBytes = 256
	}
	return c
}

// DDR adapts one or more ddr.Channel models to the Backend interface.
// With a single channel the address path is the identity, so a tenant
// driver addresses the channel directly.
type DDR struct {
	eng      *sim.Engine
	cfg      DDRConfig
	channels []*ddr.Channel
	calls    Calls[ddr.Result]

	// reads/writes/payloadBytes keep the unified Counters contract
	// (payload-true DataBytes, read/write split) that the channel
	// model's own statistics — bursts on the bus — cannot provide.
	// They advance at completion, like the hmc/chain device counters,
	// so a mid-run snapshot never includes in-flight requests on one
	// backend but not another.
	reads, writes uint64
	payloadBytes  uint64
}

// ddrPort is the (stateless) issue point; every port shares the
// channels, contending on the same command/data buses.
type ddrPort struct{ be *DDR }

// NewDDR builds the channel array on an engine.
func NewDDR(eng *sim.Engine, cfg DDRConfig) (*DDR, error) {
	cfg = cfg.withDefaults()
	if eng == nil {
		return nil, fmt.Errorf("mem: nil engine")
	}
	if cfg.Channels < 1 || cfg.Channels > 8 {
		return nil, fmt.Errorf("mem: ddr channel count %d outside 1..8", cfg.Channels)
	}
	if cfg.InterleaveBytes <= 0 || cfg.InterleaveBytes%cfg.Channel.BurstBytes != 0 {
		return nil, fmt.Errorf("mem: interleave %d not a multiple of burst %d",
			cfg.InterleaveBytes, cfg.Channel.BurstBytes)
	}
	be := &DDR{eng: eng, cfg: cfg}
	be.calls = NewCalls(func(c *Call[ddr.Result]) func(ddr.Result) {
		return func(r ddr.Result) {
			req, done := c.Release()
			if req.Write {
				be.writes++
			} else {
				be.reads++
			}
			size := req.Size
			if size <= 0 {
				size = be.cfg.Channel.BurstBytes
			}
			be.payloadBytes += uint64(size)
			done(Result{Req: req, Submit: r.Submit, Deliver: r.Deliver})
		}
	})
	for i := 0; i < cfg.Channels; i++ {
		ch, err := ddr.NewChannel(eng, cfg.Channel)
		if err != nil {
			return nil, err
		}
		be.channels = append(be.channels, ch)
	}
	return be, nil
}

// Name reports "ddr4".
func (b *DDR) Name() string { return "ddr4" }

// Engine returns the backend's engine.
func (b *DDR) Engine() *sim.Engine { return b.eng }

// Channels reports the channel count.
func (b *DDR) Channels() int { return len(b.channels) }

// ChannelOf maps a global address to the channel its interleaved
// block lands on (the fault injector's zone map, like a chain's
// Decode).
func (b *DDR) ChannelOf(addr uint64) int {
	ch, _ := b.route(addr)
	return ch
}

// CapacityBytes is the aggregate capacity across channels.
func (b *DDR) CapacityBytes() uint64 {
	return uint64(len(b.channels)) * b.cfg.Channel.ChannelCapacity
}

// CapMask covers the aggregate space rounded up to a power of two.
func (b *DDR) CapMask() uint64 { return nextPow2(b.CapacityBytes()) - 1 }

// Limits reports the per-channel scheduler queue as the outstanding
// window (32, a typical per-channel scheduler queue) with no hardware
// issue pacing.
func (b *DDR) Limits() Limits { return Limits{ReadDepth: 32, WriteDepth: 32} }

// Port returns an issue point; DDR has no per-port state, so the
// index only labels the caller.
func (b *DDR) Port(int) Port { return ddrPort{be: b} }

// WireBytes is the data-bus occupancy: whole bursts, no packet
// overhead (the synchronous interface carries commands out of band).
func (b *DDR) WireBytes(_ bool, size int) int {
	burst := b.cfg.Channel.BurstBytes
	if size <= 0 {
		return burst
	}
	return (size + burst - 1) / burst * burst
}

// MinLatency is the channel's latency floor: the front-end path, one
// CAS (the open-page row-hit case — every other bank state adds tRCD
// and/or tRP on top), and the back-end return path. Burst transfer
// time and command-bus serialization only add to it, so the bound is
// conservative for reads and writes alike.
func (b *DDR) MinLatency() sim.Duration {
	c := b.cfg.Channel
	return c.FrontEndLatency + c.Timing.TCL + c.BackEndLatency
}

// Counters reports the unified snapshot: payload bytes and the
// read/write split from the adapter's own accounting (like the
// hmc/chain adapters), wire bytes as the channels' data-bus occupancy
// (whole bursts — the synchronous interface's interconnect cost).
func (b *DDR) Counters() Counters {
	c := Counters{
		Accesses:  b.reads + b.writes,
		Reads:     b.reads,
		Writes:    b.writes,
		DataBytes: b.payloadBytes,
	}
	for _, ch := range b.channels {
		_, _, _, dataBytes := ch.Stats()
		c.WireBytes += dataBytes
	}
	return c
}

// HitRate reports the row-buffer hit rate across channels — the
// locality behaviour the paper contrasts HMC's closed page against.
func (b *DDR) HitRate() float64 {
	var hits, misses uint64
	for _, ch := range b.channels {
		_, h, m, _ := ch.Stats()
		hits += h
		misses += m
	}
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// route maps a global address to (channel, channel-local address) by
// block interleaving; a single channel passes addresses through
// untouched.
func (b *DDR) route(addr uint64) (int, uint64) {
	n := uint64(len(b.channels))
	if n == 1 {
		return 0, addr
	}
	g := uint64(b.cfg.InterleaveBytes)
	blk := addr / g
	return int(blk % n), blk/n*g + addr%g
}

// Submit routes the request to its channel at the current time.
func (p ddrPort) Submit(req Request, done Done) {
	b := p.be
	ch, local := b.route(req.Addr)
	b.channels[ch].Access(b.eng.Now(), local, req.Size, req.Write, b.calls.Call(req, done))
}

// CanIssue always admits: the JEDEC interface has no stop signal; the
// scheduler queue is the driver's window.
func (p ddrPort) CanIssue(uint64) bool { return true }

// WaitIssue never parks (CanIssue is always true); it runs fn
// immediately to keep waiter semantics livelock-free.
func (p ddrPort) WaitIssue(_ uint64, fn func()) { fn() }
