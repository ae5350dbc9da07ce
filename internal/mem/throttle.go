package mem

import "hmcsim/internal/sim"

// Throttle decorates a Backend with zoned thermal derating: a
// controller (the thermal runtime) raises and lowers an integer
// throttle level per zone, and every completion out of a derated zone
// is stretched by level*Unit before it reaches the caller. Requests
// are forwarded to the inner backend immediately — Result.Submit is
// the original submission instant — so the stretch is fully visible
// in the port-observed latency the histograms record, exactly like a
// DRAM refresh-rate derate or link-speed drop would be. A zone pushed
// past the shutdown threshold rejects accesses outright (Result.Err,
// the same contract as a failed cube), and recovers when the
// controller clears it.
//
// The hot path follows the package's zero-allocation discipline: each
// in-flight access borrows a pooled completion adapter (Calls), and
// stretched and rejected completions ride a sim.Deliverer.
type Throttle struct {
	// inner is the decorated backend. The decorator is transparent to
	// the scenario compiler's backend switch, and throttling only ever
	// adds latency, so the inner lookahead bound stays conservative.
	inner
	eng *sim.Engine
	// zoneOf maps an address to its thermal zone (cube of a chain,
	// the single device otherwise).
	zoneOf func(addr uint64) int
	unit   sim.Duration
	zones  []zoneState
	ports  []*throttlePort
	calls  Calls[Result]
	late   sim.Deliverer[Result]
	// rejected counts accesses refused by shutdown zones; the inner
	// backend never sees them.
	rejected uint64
}

// inner names the decorated Backend when it is embedded, so the field
// stays private and Inner is the one way to reach it.
type inner = Backend

type zoneState struct {
	level int
	down  bool
}

type throttlePort struct {
	// Port is the inner port. CanIssue and WaitIssue pass through:
	// shutdown zones keep admitting (and rejecting) traffic so
	// closed-loop drivers never park on a waiter that nothing would
	// ever re-fire.
	Port
	t *Throttle
}

// NewThrottle wraps inner with zones thermal zones. zoneOf maps an
// address to a zone index (nil means everything is zone 0); unit is
// the latency stretch added per throttle level per access.
func NewThrottle(inner Backend, zones int, zoneOf func(addr uint64) int, unit sim.Duration) *Throttle {
	if zones < 1 {
		panic("mem: throttle needs at least one zone")
	}
	if unit <= 0 {
		panic("mem: throttle unit must be positive")
	}
	if zoneOf == nil {
		zoneOf = func(uint64) int { return 0 }
	}
	t := &Throttle{
		inner:  inner,
		eng:    inner.Engine(),
		zoneOf: zoneOf,
		unit:   unit,
		zones:  make([]zoneState, zones),
		late:   sim.NewDeliverer[Result](inner.Engine()),
	}
	t.calls = NewCalls(func(c *Call[Result]) func(Result) {
		return func(r Result) {
			_, done := c.Release()
			extra := sim.Duration(t.zones[t.zoneOf(r.Req.Addr)].level) * t.unit
			if extra <= 0 {
				done(r)
				return
			}
			r.Deliver += extra
			t.late.Deliver(t.eng.Now()+extra, r, done)
		}
	})
	return t
}

// Inner returns the decorated backend.
func (t *Throttle) Inner() Backend { return t.inner }

// Zones reports the zone count.
func (t *Throttle) Zones() int { return len(t.zones) }

// SetLevel sets a zone's throttle level (0 = no derating). Levels
// take effect for completions delivered after the call.
func (t *Throttle) SetLevel(zone, level int) {
	if level < 0 {
		level = 0
	}
	t.zones[zone].level = level
}

// Level reports a zone's current throttle level.
func (t *Throttle) Level(zone int) int { return t.zones[zone].level }

// SetShutdown marks a zone shut down (accesses rejected) or restores
// it.
func (t *Throttle) SetShutdown(zone int, down bool) { t.zones[zone].down = down }

// Rejected counts accesses refused by shutdown zones.
func (t *Throttle) Rejected() uint64 { return t.rejected }

// Counters reports the inner totals plus shutdown rejections (which
// the inner backend never saw).
func (t *Throttle) Counters() Counters {
	c := t.inner.Counters()
	c.Errors += t.rejected
	return c
}

// Port wraps inner port i. Port identities are stable: the same index
// returns the same Port value.
func (t *Throttle) Port(i int) Port {
	for len(t.ports) <= i {
		t.ports = append(t.ports, nil)
	}
	if t.ports[i] == nil {
		t.ports[i] = &throttlePort{Port: t.inner.Port(i), t: t}
	}
	return t.ports[i]
}

// Submit forwards to the inner port, or rejects at the latency floor
// when the address's zone is shut down.
func (p *throttlePort) Submit(req Request, done Done) {
	t := p.t
	z := &t.zones[t.zoneOf(req.Addr)]
	if z.down {
		t.rejected++
		now := t.eng.Now()
		at := now + t.MinLatency() + sim.Duration(z.level)*t.unit
		t.late.Deliver(at, Result{Req: req, Submit: now, Deliver: at, Err: true}, done)
		return
	}
	p.Port.Submit(req, t.calls.Call(req, done))
}
