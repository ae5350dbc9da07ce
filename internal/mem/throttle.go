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
// in-flight access borrows a pooled flight object whose inner-done
// closure is built once, and the stretch is scheduled by reusing the
// flight itself as the sim.Handler.
type Throttle struct {
	inner Backend
	eng   *sim.Engine
	// zoneOf maps an address to its thermal zone (cube of a chain,
	// the single device otherwise).
	zoneOf func(addr uint64) int
	unit   sim.Duration
	zones  []zoneState
	ports  []*throttlePort
	free   *throttleFlight
	// rejected counts accesses refused by shutdown zones; the inner
	// backend never sees them.
	rejected uint64
}

type zoneState struct {
	level int
	down  bool
}

// throttleFlight is one in-flight access. It doubles as the delayed
// delivery event: Fire hands the stretched Result to the caller and
// returns the flight to the pool.
type throttleFlight struct {
	t    *Throttle
	done Done
	res  Result
	fn   Done // prebuilt inner-completion closure
	next *throttleFlight
}

type throttlePort struct {
	t     *Throttle
	inner Port
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
	return &Throttle{
		inner:  inner,
		eng:    inner.Engine(),
		zoneOf: zoneOf,
		unit:   unit,
		zones:  make([]zoneState, zones),
	}
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

// Name, Engine, CapacityBytes, CapMask, Limits, WireBytes and
// MinLatency delegate: the decorator is transparent to the scenario
// compiler's backend switch, and throttling only ever adds latency,
// so the inner lookahead bound stays conservative.
func (t *Throttle) Name() string          { return t.inner.Name() }
func (t *Throttle) Engine() *sim.Engine   { return t.eng }
func (t *Throttle) CapacityBytes() uint64 { return t.inner.CapacityBytes() }
func (t *Throttle) CapMask() uint64       { return t.inner.CapMask() }
func (t *Throttle) Limits() Limits        { return t.inner.Limits() }
func (t *Throttle) WireBytes(write bool, size int) int {
	return t.inner.WireBytes(write, size)
}
func (t *Throttle) MinLatency() sim.Duration { return t.inner.MinLatency() }

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
		t.ports[i] = &throttlePort{t: t, inner: t.inner.Port(i)}
	}
	return t.ports[i]
}

func (t *Throttle) newFlight() *throttleFlight {
	f := t.free
	if f == nil {
		f = &throttleFlight{t: t}
		f.fn = func(r Result) {
			extra := sim.Duration(f.t.zones[f.t.zoneOf(r.Req.Addr)].level) * f.t.unit
			if extra <= 0 {
				done := f.done
				f.done = nil
				f.next = f.t.free
				f.t.free = f
				done(r)
				return
			}
			f.res = r
			f.res.Deliver = r.Deliver + extra
			f.t.eng.ScheduleHandler(extra, f)
		}
	} else {
		t.free = f.next
	}
	return f
}

// Fire delivers a stretched (or rejected) completion.
func (f *throttleFlight) Fire(*sim.Engine) {
	done, res := f.done, f.res
	f.done = nil
	f.next = f.t.free
	f.t.free = f
	done(res)
}

// Submit forwards to the inner port, or rejects at the latency floor
// when the address's zone is shut down.
func (p *throttlePort) Submit(req Request, done Done) {
	t := p.t
	z := &t.zones[t.zoneOf(req.Addr)]
	if z.down {
		t.rejected++
		now := t.eng.Now()
		delay := t.inner.MinLatency() + sim.Duration(z.level)*t.unit
		f := t.newFlight()
		f.done = done
		f.res = Result{Req: req, Submit: now, Deliver: now + delay, Err: true}
		t.eng.ScheduleHandler(delay, f)
		return
	}
	f := t.newFlight()
	f.done = done
	p.inner.Submit(req, f.fn)
}

// CanIssue and WaitIssue delegate: shutdown zones keep admitting (and
// rejecting) traffic so closed-loop drivers never park on a waiter
// that nothing would ever re-fire.
func (p *throttlePort) CanIssue(addr uint64) bool        { return p.inner.CanIssue(addr) }
func (p *throttlePort) WaitIssue(addr uint64, fn func()) { p.inner.WaitIssue(addr, fn) }

var _ Backend = (*Throttle)(nil)
