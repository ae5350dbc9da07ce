// Package fault is the deterministic fault-injection subsystem: a
// seeded decorator over any mem.Backend that reproduces the failure
// modes real HMC links carry — CRC-protected flits replayed from the
// link retry buffer (transient errors, visible only as a
// retransmission round trip of extra latency) and hard zone or cube
// outages (completions with Result.Err, the failed-cube contract) —
// on a scripted or stochastic schedule that replays byte-identically
// for a given (plan, seed) at every worker count.
//
// The Injector follows the mem package's decorator shape (the same
// contract surface as mem.Throttle, and composable with it in either
// order): Submit forwards to the inner backend immediately, a
// transient stretch borrows a pooled mem.Calls adapter and rides a
// sim.Deliverer, and local outage rejections complete at the latency
// floor through the same Deliverer without the inner backend ever
// seeing them. Both submit paths are 0 allocs/op in steady state.
package fault

import (
	"fmt"
	"math"

	"hmcsim/internal/mem"
	"hmcsim/internal/sim"
)

// Config wires an Injector to a backend's zone structure.
type Config struct {
	// Plan scripts the injection schedule (normalized and validated by
	// New).
	Plan Plan
	// Seed drives the transient-error draws and the stochastic outage
	// process; the same seed replays the same fault sequence exactly.
	Seed uint64
	// Zones is the outage granularity (cubes of a chain, channels of a
	// multi-channel DDR4 system; minimum 1).
	Zones int
	// ZoneOf maps an address to its zone (nil = everything in zone 0).
	ZoneOf func(addr uint64) int
	// OnFail/OnRepair, when set, forward outage transitions to the
	// backend's own failure model (chain.Network.FailCube/RepairCube)
	// so rerouting and severed-chain semantics come from the network
	// itself; the injector then forwards downed-zone requests instead
	// of rejecting them locally.
	OnFail, OnRepair func(zone int)
}

// Injector decorates a Backend with plan-driven fault injection.
type Injector struct {
	// backend is the decorated backend. The decorator is transparent
	// to the scenario compiler, and injection only ever adds latency
	// (stretches and floor-latency rejections), so the inner lookahead
	// bound stays conservative.
	backend
	eng    *sim.Engine
	plan   Plan
	zoneOf func(addr uint64) int
	zones  []zoneState
	// rng draws the per-request transient-error decisions; submissions
	// happen in deterministic engine order, so one stream replays.
	rng       *sim.RNG
	rate      float64
	retryCost sim.Duration
	onFail    func(int)
	onRepair  func(int)
	ports     []*faultPort
	calls     mem.Calls[mem.Result]
	late      sim.Deliverer[mem.Result]
	// nextEvent cursors the sorted scripted events.
	nextEvent int
	horizon   sim.Time
	started   bool

	injected uint64 // transient link retries injected
	rejected uint64 // local outage rejections (inner never saw them)
	outages  uint64 // outage windows entered (scripted + stochastic)
}

// backend names the decorated mem.Backend when it is embedded, so the
// field stays private and Inner is the one way to reach it.
type backend = mem.Backend

// zoneState is one zone's outage state plus its stochastic process.
type zoneState struct {
	down bool
	// rng drives the zone's exponential up/down draws; per-zone streams
	// keep the process independent of traffic and of other zones.
	rng sim.RNG
	ev  zoneEvent
}

// zoneEvent is a zone's pending MTBF/MTTR transition (fail when the
// zone is up, repair when it is down). It is embedded in zoneState so
// arming the next transition never allocates.
type zoneEvent struct {
	inj  *Injector
	zone int
}

type faultPort struct {
	// Port is the inner port. CanIssue and WaitIssue pass through:
	// downed zones keep admitting (and erroring) traffic so
	// closed-loop drivers never park forever.
	mem.Port
	inj *Injector
}

// New builds an injector over inner. The plan is normalized and
// validated; a zero plan is legal (the decorator becomes transparent,
// which keeps option plumbing simple).
func New(inner mem.Backend, cfg Config) (*Injector, error) {
	plan := cfg.Plan.Normalize()
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	zones := cfg.Zones
	if zones < 1 {
		zones = 1
	}
	zoneOf := cfg.ZoneOf
	if zoneOf == nil {
		zoneOf = func(uint64) int { return 0 }
	}
	if plan.RetryCost == 0 {
		// One retransmission round trip at the backend's latency floor:
		// the link replays the flit, the response repeats the fastest
		// possible traversal.
		plan.RetryCost = inner.MinLatency()
	}
	inj := &Injector{
		backend:   inner,
		eng:       inner.Engine(),
		plan:      plan,
		zoneOf:    zoneOf,
		zones:     make([]zoneState, zones),
		rng:       sim.NewRNG(mix(cfg.Seed, 0x66a9f7d3)),
		rate:      plan.Rate,
		retryCost: plan.RetryCost,
		onFail:    cfg.OnFail,
		onRepair:  cfg.OnRepair,
		late:      sim.NewDeliverer[mem.Result](inner.Engine()),
	}
	inj.calls = mem.NewCalls(func(c *mem.Call[mem.Result]) func(mem.Result) {
		return func(r mem.Result) {
			_, done := c.Release()
			if r.Err {
				// A link retry cannot rescue a severed route.
				done(r)
				return
			}
			r.Deliver += inj.retryCost
			inj.late.Deliver(inj.eng.Now()+inj.retryCost, r, done)
		}
	})
	for z := range inj.zones {
		inj.zones[z].rng.Seed(mix(cfg.Seed, 0x8d1c3a55+uint64(z)*0x9e3779b97f4a7c15))
		inj.zones[z].ev = zoneEvent{inj: inj, zone: z}
	}
	return inj, nil
}

// mix folds a salt into a seed so the injector's streams never alias
// the drivers' PortSeed-derived ones.
func mix(seed, salt uint64) uint64 {
	x := seed ^ salt
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// Start arms the plan: scripted events are scheduled in At order and
// the stochastic outage process (when enabled) draws each zone's
// first failure. Events beyond horizon never fire. Call once, before
// the engine runs.
func (inj *Injector) Start(horizon sim.Time) {
	if inj.started {
		panic("fault: injector started twice")
	}
	inj.started = true
	inj.horizon = horizon
	inj.armNextEvent()
	if inj.plan.MTBF > 0 {
		for z := range inj.zones {
			inj.armZone(z)
		}
	}
}

// armNextEvent schedules the injector itself for the next scripted
// event still inside the horizon.
func (inj *Injector) armNextEvent() {
	for inj.nextEvent < len(inj.plan.Events) {
		e := inj.plan.Events[inj.nextEvent]
		if e.At >= inj.horizon {
			inj.nextEvent = len(inj.plan.Events)
			return
		}
		inj.eng.AtHandler(e.At, inj)
		return
	}
}

// Fire applies every scripted event due now, then re-arms.
func (inj *Injector) Fire(e *sim.Engine) {
	now := e.Now()
	for inj.nextEvent < len(inj.plan.Events) && inj.plan.Events[inj.nextEvent].At <= now {
		ev := inj.plan.Events[inj.nextEvent]
		inj.nextEvent++
		inj.apply(ev)
	}
	inj.armNextEvent()
}

// apply executes one event's state change.
func (inj *Injector) apply(ev Event) {
	switch ev.Kind {
	case Fail:
		inj.failZone(ev.Zone)
	case Repair:
		inj.repairZone(ev.Zone)
	case Rate:
		inj.rate = ev.Rate
	}
}

// failZone opens an outage window. Out-of-range zones are ignored,
// the same contract as chain.Network.FailCube — plans are scripts,
// and a script naming a zone the topology does not have is a no-op,
// not a crash.
func (inj *Injector) failZone(z int) {
	if z < 0 || z >= len(inj.zones) || inj.zones[z].down {
		return
	}
	inj.zones[z].down = true
	inj.outages++
	if inj.onFail != nil {
		inj.onFail(z)
	}
}

// repairZone closes an outage window (no-op when the zone is up or
// out of range).
func (inj *Injector) repairZone(z int) {
	if z < 0 || z >= len(inj.zones) || !inj.zones[z].down {
		return
	}
	inj.zones[z].down = false
	if inj.onRepair != nil {
		inj.onRepair(z)
	}
}

// armZone draws the zone's next stochastic transition and schedules
// it. Up zones draw time-to-failure from MTBF, down zones draw
// time-to-repair from MTTR.
func (inj *Injector) armZone(z int) {
	mean := inj.plan.MTBF
	if inj.zones[z].down {
		mean = inj.plan.MTTR
	}
	delay := expDraw(&inj.zones[z].rng, mean)
	at := inj.eng.Now() + delay
	if at >= inj.horizon {
		return
	}
	inj.eng.AtHandler(at, &inj.zones[z].ev)
}

// Fire toggles the zone and draws its next transition.
func (ze *zoneEvent) Fire(*sim.Engine) {
	inj, z := ze.inj, ze.zone
	if inj.zones[z].down {
		inj.repairZone(z)
	} else {
		inj.failZone(z)
	}
	inj.armZone(z)
}

// expDraw samples an exponential with the given mean on the
// picosecond clock (minimum 1 ps so the process always advances).
func expDraw(rng *sim.RNG, mean sim.Duration) sim.Duration {
	d := sim.Duration(-math.Log(1-rng.Float64()) * float64(mean))
	if d < 1 {
		d = 1
	}
	return d
}

// Inner returns the decorated backend (decorator-stack walking).
func (inj *Injector) Inner() mem.Backend { return inj.backend }

// Injected counts transient link retries injected so far.
func (inj *Injector) Injected() uint64 { return inj.injected }

// Outages counts outage windows entered (scripted and stochastic).
func (inj *Injector) Outages() uint64 { return inj.outages }

// Counters reports the inner totals plus local outage rejections.
func (inj *Injector) Counters() mem.Counters {
	c := inj.backend.Counters()
	c.Errors += inj.rejected
	return c
}

// Port wraps inner port i; identities are stable.
func (inj *Injector) Port(i int) mem.Port {
	for len(inj.ports) <= i {
		inj.ports = append(inj.ports, nil)
	}
	if inj.ports[i] == nil {
		inj.ports[i] = &faultPort{Port: inj.backend.Port(i), inj: inj}
	}
	return inj.ports[i]
}

// Submit forwards to the inner port, drawing the request's transient
// fate first. Requests into a downed zone are rejected locally at the
// latency floor — unless the outage is forwarded to the backend's own
// failure model (OnFail set), which then produces the errors itself,
// rerouting whatever its topology can save.
func (p *faultPort) Submit(req mem.Request, done mem.Done) {
	inj := p.inj
	if inj.zones[inj.zoneOf(req.Addr)].down && inj.onFail == nil {
		inj.rejected++
		now := inj.eng.Now()
		at := now + inj.MinLatency()
		inj.late.Deliver(at, mem.Result{Req: req, Submit: now, Deliver: at, Err: true}, done)
		return
	}
	if inj.rate > 0 && inj.rng.Float64() < inj.rate {
		inj.injected++
		if inj.retryCost > 0 {
			p.Port.Submit(req, inj.calls.Call(req, done))
			return
		}
	}
	// Clean fast path: no adapter needed, the caller's Done is stored
	// directly by the inner backend.
	p.Port.Submit(req, done)
}

var _ fmt.Stringer = EventKind(0)
