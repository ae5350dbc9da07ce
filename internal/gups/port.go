package gups

import (
	"sync"

	"hmcsim/internal/mem"
	"hmcsim/internal/sim"
	"hmcsim/internal/stats"
)

// Monitor is the per-port monitoring unit: it records read and write
// round trips (one stats.LogHist per direction: exact count, mean,
// min and max, plus log buckets for tail percentiles) and completed
// traffic. Measurement is gated so the runner can skip warmup; Reset
// clears everything at the warmup/measurement boundary, so cold-start
// events never leak into the distributions.
type Monitor struct {
	measuring bool

	// ReadHistNs / WriteHistNs are the latency records per direction:
	// exact mean/min/max and the distribution behind the tail
	// percentiles (p50..p99.9; see stats.LogHist for the units and the
	// error bound). They are nil on a zero-value Monitor and drawn
	// from a pool by NewMonitor; Merge allocates on demand so plain
	// accumulators keep working, and never keeps a pointer to a
	// source's record.
	ReadHistNs  *stats.LogHist
	WriteHistNs *stats.LogHist

	Reads     uint64
	Writes    uint64
	DataBytes uint64
	RawBytes  uint64
}

// histPool recycles monitor histograms: Release puts, NewMonitor
// takes. A histogram is 15 KB and a sweep builds two per port per cell.
var histPool = sync.Pool{New: func() any { return new(stats.LogHist) }}

// NewMonitor returns a monitor with empty latency histograms, ready
// for the zero-allocation record path. The histograms come from a
// pool; Release returns them once the monitor has been folded.
func NewMonitor() Monitor {
	return Monitor{ReadHistNs: pooledHist(), WriteHistNs: pooledHist()}
}

func pooledHist() *stats.LogHist {
	h := histPool.Get().(*stats.LogHist)
	h.Reset()
	return h
}

// Release returns m's histograms to the pool NewMonitor draws from and
// clears m's pointers to them. Call it once m's measurements have been
// folded into an accumulator (Merge copies bucket counts, so no
// result aliases a released histogram).
func (m *Monitor) Release() {
	for _, h := range []*stats.LogHist{m.ReadHistNs, m.WriteHistNs} {
		if h != nil {
			histPool.Put(h)
		}
	}
	m.ReadHistNs, m.WriteHistNs = nil, nil
}

// Merge folds another monitor's measurements into m.
func (m *Monitor) Merge(o Monitor) {
	stats.MergeHist(&m.ReadHistNs, o.ReadHistNs)
	stats.MergeHist(&m.WriteHistNs, o.WriteHistNs)
	m.Reads += o.Reads
	m.Writes += o.Writes
	m.DataBytes += o.DataBytes
	m.RawBytes += o.RawBytes
}

// Record books one completed, measured request into the monitor —
// the single definition of per-completion telemetry, shared by the
// GUPS issue loops and the scenario tenant drivers so read/write
// accounting cannot diverge across backends. Callers gate on their
// measuring flag and the result's error bit; the histograms must be
// allocated (NewMonitor).
func (m *Monitor) Record(write bool, r mem.Result, wireBytes, dataBytes uint64) {
	h := m.ReadHistNs
	if write {
		m.Writes++
		h = m.WriteHistNs
	} else {
		m.Reads++
	}
	h.Record(int64(r.Latency()))
	m.RawBytes += wireBytes
	m.DataBytes += dataBytes
}

// Reset clears all measured data in place — counters and histogram
// contents — keeping the measuring gate and the histogram storage, so
// the warmup boundary costs no allocation.
func (m *Monitor) Reset() {
	rh, wh := m.ReadHistNs, m.WriteHistNs
	*m = Monitor{measuring: m.measuring, ReadHistNs: rh, WriteHistNs: wh}
	if rh != nil {
		rh.Reset()
	}
	if wh != nil {
		wh.Reset()
	}
}

// PortConfig configures one GUPS port: its request mix, an optional
// arrival clock and window cap, and its address stream.
type PortConfig struct {
	Type ReqType
	// ReadFraction is the read share for Type == Mixed (0..1).
	ReadFraction float64

	// Arrivals switches the port to open-loop injection: requests
	// arrive on this clock instead of one per backend issue cycle.
	// Open-loop pacing keeps an absolute arrival schedule —
	// backpressure delays requests but never depresses offered load —
	// while nil keeps the closed-loop hardware cadence, which is a
	// throughput bound, not an arrival clock, and re-bases off the
	// issuing instant.
	Arrivals Arrivals
	// Outstanding caps the closed-loop window below the hardware
	// depths: reads are bounded by min(read depth, Outstanding) and
	// writes by min(write depth, Outstanding). Zero keeps the full
	// hardware depths.
	Outstanding int

	// Gen is the port's address stream: mode, request size, mask
	// registers, seed, linear start and the non-uniform modes'
	// parameters (zero values select the generator defaults). NewPort
	// sets its CapMask to the backend's. It comes last so that the
	// fields the issue loop reads (Type, Arrivals, Gen.Size) sit in
	// the config's first 64 bytes.
	Gen GenParams
}

// Arrivals is an open-loop arrival clock. Next returns the arrival
// instant that follows the one at t; a port calls it once per issued
// arrival, in order, starting from time 0.
type Arrivals interface {
	Next(t sim.Time) sim.Time
}

// Port is the event-driven model of one GUPS port: it issues at most
// one request per issue cycle into a mem.Backend port, bounded by the
// backend's read depth (the HMC tag pool, depth 64), its write depth
// (the write FIFO), and the backend's flow-control stop signal. The
// same issue loop drives every backend the mem package adapts.
type Port struct {
	cfg  PortConfig
	eng  *sim.Engine
	port mem.Port
	gen  *AddrGen

	tagDepth   int
	wfifoDepth int
	interval   sim.Duration
	// wireRead/wireWrite cache the backend's per-transaction wire
	// cost, so the completion path makes no interface calls.
	wireRead, wireWrite uint64

	tagsInUse   int
	writesOut   int
	rmwPending  *sim.Queue[uint64] // addresses awaiting their RMW write
	nextIssue   sim.Time
	wakePending bool // a retry event or admission callback is armed

	// Reusable callback values, built once in NewPort so the issue
	// loop never allocates a closure or method value per request.
	wake      func()           // admission wakeup for mem.Port.WaitIssue
	readDone  func(mem.Result) // read completion
	writeDone func(mem.Result) // write completion

	// mixRNG draws the read/write intent for Mixed ports, one draw per
	// committed op: the intent is held until issuable so blocking does
	// not skew the ratio, and it is drawn at commit (the first one in
	// NewPort), so nextOp knows which resource the next op waits for.
	mixRNG  *sim.RNG
	mixRead bool // a Mixed port's next op is a read

	mon Monitor
}

// NewPort builds port id of a backend.
func NewPort(id int, b mem.Backend, cfg PortConfig) *Port {
	lim := b.Limits()
	cfg.Gen.CapMask = b.CapMask()
	p := &Port{
		cfg:        cfg,
		eng:        b.Engine(),
		port:       b.Port(id),
		gen:        NewAddrGenParams(cfg.Gen),
		tagDepth:   lim.ReadDepth,
		wfifoDepth: lim.WriteDepth,
		interval:   lim.IssueInterval,
		wireRead:   uint64(b.WireBytes(false, cfg.Gen.Size)),
		wireWrite:  uint64(b.WireBytes(true, cfg.Gen.Size)),
		rmwPending: sim.NewQueue[uint64](0),
		mixRNG:     sim.NewRNG(cfg.Gen.Seed ^ 0xa5a5a5a5),
		mon:        NewMonitor(),
	}
	if cfg.Outstanding > 0 {
		if cfg.Outstanding < p.tagDepth {
			p.tagDepth = cfg.Outstanding
		}
		if cfg.Outstanding < p.wfifoDepth {
			p.wfifoDepth = cfg.Outstanding
		}
	}
	if cfg.Type == Mixed {
		p.drawIntent()
	}
	p.wake = p.wakeUp
	p.readDone = p.onReadDone
	p.writeDone = p.onWriteDone
	return p
}

// drawIntent draws a Mixed port's next read/write intent.
func (p *Port) drawIntent() { p.mixRead = p.mixRNG.Float64() < p.cfg.ReadFraction }

// Fire runs the issue loop: the port is its own retry/pacing event,
// so arming a wakeup never allocates. Only the armed event (or the
// admission callback it stands for) clears wakePending — completion
// callbacks invoke tryIssue directly and must leave an armed pacing
// event in place, or every completion would arm a duplicate event
// that re-arms itself forever (quadratic event processing under
// open-loop pacing, where completions land between issue instants).
// A closed-loop port is armed only while it can issue: one that is
// out of tags or write-FIFO slots waits for the completion that frees
// one, and that completion's tryIssue arms the event (see tryIssue).
func (p *Port) Fire(*sim.Engine) {
	p.wakePending = false
	p.tryIssue()
}

// wakeUp is the admission callback target (mem.Port.WaitIssue): the
// armed wait is consumed, so the pending flag clears first.
func (p *Port) wakeUp() {
	p.wakePending = false
	p.tryIssue()
}

// Start arms the port's issue loop.
func (p *Port) Start() { p.eng.ScheduleHandler(0, p) }

// SetMeasuring toggles monitoring; the runners switch it on after
// warmup.
func (p *Port) SetMeasuring(on bool) { p.mon.measuring = on }

// TakeMonitor hands the port's measurements to the caller without
// copying the histograms, leaving the port a zero Monitor that holds
// none. Call it once the port's run is over, fold the result, then
// Release it.
func (p *Port) TakeMonitor() Monitor {
	m := p.mon
	p.mon = Monitor{}
	return m
}

// ResetMonitor clears measured data (keeps the measuring gate).
func (p *Port) ResetMonitor() { p.mon.Reset() }

// nextOp decides what the arbitration unit would issue next: whether
// it is a write, and whether a tag or write-FIFO slot is free for it.
// It reads only the port's counters and its held Mixed intent, so
// tryIssue asks it again after a commit.
func (p *Port) nextOp() (write, ok bool) {
	readRoom := p.tagsInUse < p.tagDepth
	writeRoom := p.writesOut < p.wfifoDepth
	switch p.cfg.Type {
	case ReadOnly:
		return false, readRoom
	case WriteOnly:
		return true, writeRoom
	case ReadModifyWrite:
		// RMW writes have priority: they drain the write FIFO that the
		// read stream fills.
		if writeRoom && p.rmwPending.Len() > 0 {
			return true, true
		}
		return false, readRoom
	case Mixed:
		if p.mixRead {
			return false, readRoom
		}
		return true, writeRoom
	}
	return false, false
}

// tryIssue is the issue loop body; it is idempotent and safe to call
// from any wakeup source (pacing timer, tag release, write ack,
// admission slot). It never clears wakePending itself: the
// event/callback entry points (Fire, wakeUp) do, so a tryIssue driven
// by a completion cannot shadow an already-armed pacing event.
//
// After a commit it arms the next issue attempt, except on a
// closed-loop port that has just taken its last tag or write-FIFO
// slot: no attempt could issue before a completion frees one, and the
// completion calls tryIssue itself, arming the same wake for the same
// instant while nextIssue is still ahead. That saves one event per
// saturated request. Paced ports (Arrivals set) always arm: their
// arrival clocks tick in lockstep across ports, so a wake armed later,
// at a completion, would take a later sequence number than another
// port's wake at the same instant, swap the two ports' order into the
// controller and change the results.
func (p *Port) tryIssue() {
	now := p.eng.Now()
	if now < p.nextIssue {
		p.armRetry(p.nextIssue)
		return
	}
	write, ok := p.nextOp()
	if !ok {
		return // blocked on tags/FIFO; a completion will wake us
	}
	rmwWrite := write && p.cfg.Type == ReadModifyWrite
	var addr uint64
	if rmwWrite {
		addr, _ = p.rmwPending.Peek()
	} else {
		addr = p.gen.Peek()
	}
	if !p.port.CanIssue(addr) {
		// Flow-control stop signal: pause generation until the backend
		// frees an admission slot.
		if !p.wakePending {
			p.wakePending = true
			p.port.WaitIssue(addr, p.wake)
		}
		return
	}
	// Commit the operation.
	if rmwWrite {
		p.rmwPending.Pop()
	} else {
		p.gen.Next()
	}
	if p.cfg.Type == Mixed {
		p.drawIntent()
	}
	if write {
		p.writesOut++
		p.port.Submit(mem.Request{Addr: addr, Size: p.cfg.Gen.Size, Write: true}, p.writeDone)
	} else {
		p.tagsInUse++
		p.port.Submit(mem.Request{Addr: addr, Size: p.cfg.Gen.Size}, p.readDone)
	}
	if a := p.cfg.Arrivals; a != nil {
		// The absolute arrival schedule: advance from the previous
		// arrival instant, never from now — re-basing here would let
		// every admission stall permanently shift later arrivals,
		// sagging offered load below the configured rate exactly in
		// the saturated region. Arrivals the stall delayed issue
		// back-to-back until the schedule catches up.
		p.nextIssue = a.Next(p.nextIssue)
	} else {
		// Closed loop: the hardware issue cadence is a minimum spacing
		// from the actual issue, not an arrival clock.
		p.nextIssue = now + p.interval
		if _, ok := p.nextOp(); !ok {
			return // out of tags/FIFO: the freeing completion arms the wake
		}
	}
	at := p.nextIssue
	if at < now {
		at = now
	}
	p.armRetry(at)
}

// armRetry schedules the next issue attempt, collapsing duplicates.
// Callers decide whether an attempt is worth an event: tryIssue skips
// it on a closed-loop port that cannot issue until a completion.
func (p *Port) armRetry(at sim.Time) {
	if p.wakePending {
		return
	}
	p.wakePending = true
	p.eng.AtHandler(at, p)
}

func (p *Port) onReadDone(r mem.Result) {
	p.tagsInUse--
	if p.mon.measuring && !r.Err {
		p.mon.Record(false, r, p.wireRead, uint64(p.cfg.Gen.Size))
	}
	if p.cfg.Type == ReadModifyWrite && !r.Err {
		p.rmwPending.Push(r.Req.Addr)
	}
	p.tryIssue()
}

func (p *Port) onWriteDone(r mem.Result) {
	p.writesOut--
	if p.mon.measuring && !r.Err {
		p.mon.Record(true, r, p.wireWrite, uint64(p.cfg.Gen.Size))
	}
	p.tryIssue()
}
