package scenario

import (
	"hmcsim/internal/fault"
	"hmcsim/internal/gups"
	"hmcsim/internal/mem"
	"hmcsim/internal/sim"
)

// tenantDriver is one tenant's injector over a mem.Backend port: a
// closed-loop outstanding window (Outstanding x Ports requests in
// flight) or an open-loop paced arrival stream, addresses from the
// tenant's generator over the backend's global address space. It is
// the backend-generic compilation target: because it only speaks
// mem.Port, the same driver runs unmodified on chain and ddr4, on the
// hmc runs the cycle-accurate gups.Port loops do not take (decorated,
// bursty, ramped or churned), and on any fourth backend the mem
// package grows.
type tenantDriver struct {
	eng      *sim.Engine
	port     mem.Port
	gen      *gups.AddrGen
	mixRNG   *sim.RNG
	readFrac float64
	write    bool
	mixed    bool
	rmw      bool
	size     int
	window   int
	inFlight int
	capacity uint64
	// reject redraws addresses beyond capacity instead of folding
	// them with a modulo: the generator space is the next power of
	// two, and a modulo would hit the low cubes twice as often when
	// the capacity is not a power of two. Random-draw modes use
	// rejection (valid fraction > 1/2, so expected < 2 draws);
	// deterministic cursor walks wrap with the modulo instead, since
	// rejection could spin through the whole dead zone.
	reject bool
	// offset rotates fresh generator addresses (mod capacity): the
	// tenant placement knob (Access.OffsetBytes).
	offset  uint64
	horizon sim.Time

	// arrivals paces an open-loop tenant (nil = closed loop): nextIssue
	// walks the clock's ABSOLUTE schedule and is never re-based off
	// Now(), so a window-full or admission stall delays requests but
	// cannot depress offered load — delayed arrivals catch up
	// back-to-back once the window frees. The driver is its own pacing
	// event, so arming a wakeup never allocates.
	arrivals *arrivals
	// startAt is the tenant's lifecycle start (horizon already holds
	// its Stop clip); arrivals and the closed-loop window both open
	// there.
	startAt   sim.Time
	nextIssue sim.Time
	armed     bool

	// rmwPending holds addresses whose read returned and now owe
	// their read-modify-write write-back; they drain ahead of new
	// reads, mirroring the GUPS arbitration priority.
	rmwPending *sim.Queue[uint64]

	// wireRead/wireWrite cache the backend's per-transaction wire
	// cost so the completion path makes no interface calls.
	wireRead, wireWrite uint64

	measuring bool
	mon       gups.Monitor

	// Client resilience: every request is a pooled clientOp carrying
	// bounded retries with exponential backoff and an end-to-end
	// deadline. With no retries and no deadline an error surfaces at
	// once and no extra event is scheduled.
	maxRetries int
	backoff    sim.Duration // base delay, doubled per attempt
	deadline   sim.Duration // end to end across retries; 0 = none
	opFree     *clientOp

	// Resilience accounting (measured window only): errs counts every
	// errored completion observed, retries the resubmissions,
	// abandoned the deadline give-ups, failed the requests whose
	// retries were exhausted.
	errs, retries, abandoned, failed uint64
}

// clientOp is one logical request of a tenant driver. It is pooled
// and shared by up to three pending references — the in-flight
// completion, a scheduled deadline event and a scheduled backoff
// event — counted in refs; the op returns to the pool at refs == 0.
// The embedded retry/timeout structs give the two scheduled events
// distinct sim.Handler identities without allocation.
type clientOp struct {
	d        *tenantDriver
	addr     uint64
	write    bool
	first    sim.Time // first submission: success latency is end to end
	attempts int
	// finished marks the driver-visible outcome as delivered (window
	// slot freed): late completions and stale events become no-ops.
	finished bool
	refs     int
	retry    opRetry
	timeout  opTimeout
	fn       mem.Done // prebuilt completion closure
	next     *clientOp
}

type opRetry struct{ op *clientOp }

func (e *opRetry) Fire(*sim.Engine) { e.op.fireRetry() }

type opTimeout struct{ op *clientOp }

func (e *opTimeout) Fire(*sim.Engine) { e.op.fireTimeout() }

// newTenantDriver lowers tenant index ti of the (defaulted) spec onto
// a backend, issuing through port: the backend's own Port(ti), or the
// mesh port a Remote tenant crosses shards through, while capacity,
// limits and wire costs still come from the backend. The traffic is
// the tenant's lowering keyed by tenant index, so a spec replays
// byte-identically across runs and worker counts.
func newTenantDriver(be mem.Backend, port mem.Port, t Tenant, ti int, o Options, horizon sim.Time) (*tenantDriver, error) {
	ty, gen, err := t.traffic(o.Seed, ti)
	if err != nil {
		return nil, err
	}
	gen.CapMask = be.CapMask()
	startAt := sim.Time(t.Start)
	if t.Stop > 0 && sim.Time(t.Stop) < horizon {
		horizon = sim.Time(t.Stop)
	}
	window := t.Inject.Outstanding
	if window == 0 {
		window = be.Limits().ReadDepth
	}
	d := &tenantDriver{
		eng:      be.Engine(),
		port:     port,
		gen:      gups.NewAddrGenParams(gen),
		mixRNG:   sim.NewRNG(gen.Seed ^ 0xa5a5a5a5),
		readFrac: t.ReadFraction,
		write:    ty == gups.WriteOnly,
		mixed:    ty == gups.Mixed,
		rmw:      ty == gups.ReadModifyWrite,
		size:     t.Size,
		window:   window * t.Ports,
		capacity: be.CapacityBytes(),
		offset:   t.Access.OffsetBytes,
		reject:   gen.Mode == gups.Random || gen.Mode == gups.Zipfian || gen.Mode == gups.Hotspot,
		horizon:  horizon,
		// The tenant's ports pace as one aggregate stream.
		arrivals:  newArrivals(t, t.Ports, gen.Seed, horizon),
		startAt:   startAt,
		nextIssue: startAt,
		wireRead:  uint64(be.WireBytes(false, t.Size)),
		wireWrite: uint64(be.WireBytes(true, t.Size)),
		mon:       gups.NewMonitor(),
	}
	if d.rmw {
		d.rmwPending = sim.NewQueue[uint64](0)
	}
	d.maxRetries = o.Faults.MaxRetries
	d.backoff = o.Faults.Backoff
	if d.backoff == 0 {
		d.backoff = be.MinLatency()
	}
	d.deadline = o.Faults.Deadline
	return d, nil
}

// start arms the injector at the tenant's lifecycle start.
func (d *tenantDriver) start() { d.arm(d.startAt) }

// Fire is the pacing/retry event entry point; only it clears the
// armed flag (completions call issue directly and must leave an armed
// pacing event in place — the same discipline gups.Port documents).
func (d *tenantDriver) Fire(*sim.Engine) {
	d.armed = false
	d.issue()
}

func (d *tenantDriver) arm(at sim.Time) {
	if d.armed {
		return
	}
	d.armed = true
	d.eng.AtHandler(at, d)
}

// nextOp picks the next operation: pending RMW write-backs first,
// then a fresh generator address with the tenant's read/write intent.
func (d *tenantDriver) nextOp() (addr uint64, write bool) {
	if d.rmw && d.rmwPending.Len() > 0 {
		a, _ := d.rmwPending.Pop()
		return a, true
	}
	addr = d.gen.Next()
	if d.reject {
		for addr >= d.capacity {
			addr = d.gen.Next()
		}
	} else {
		addr %= d.capacity
	}
	if d.offset != 0 {
		// Rotate only fresh addresses — RMW write-backs replay the
		// already-rotated read address.
		addr = (addr + d.offset) % d.capacity
	}
	write = d.write
	if d.mixed {
		write = d.mixRNG.Float64() >= d.readFrac
	}
	return addr, write
}

// issue fills the outstanding window (closed loop) or releases every
// arrival the absolute schedule owes up to now (open-loop modes).
// Paced arrivals delayed by a full window issue back-to-back the
// moment slots free, so offered load tracks the schedule exactly;
// only the horizon (or a lifecycle Stop) retires unserved arrivals.
func (d *tenantDriver) issue() {
	for d.inFlight < d.window && d.eng.Now() < d.horizon {
		if d.arrivals != nil {
			if d.nextIssue >= d.horizon {
				return
			}
			if now := d.eng.Now(); now < d.nextIssue {
				d.arm(d.nextIssue)
				return
			}
		}
		addr, write := d.nextOp()
		d.inFlight++
		d.submitOp(addr, write)
		if d.arrivals != nil {
			// The absolute schedule: advance from the previous arrival
			// instant, never from Now() — re-basing here is the pacing
			// drift this driver's stall tests pin.
			d.nextIssue = d.arrivals.Next(d.nextIssue)
		}
	}
}

// newOp draws a pooled clientOp with its closures prebuilt.
func (d *tenantDriver) newOp() *clientOp {
	op := d.opFree
	if op == nil {
		op = &clientOp{d: d}
		op.retry.op = op
		op.timeout.op = op
		op.fn = func(r mem.Result) { op.complete(r) }
	} else {
		d.opFree = op.next
	}
	return op
}

// submitOp issues one logical request.
func (d *tenantDriver) submitOp(addr uint64, write bool) {
	op := d.newOp()
	op.addr, op.write = addr, write
	op.first = d.eng.Now()
	op.attempts, op.finished = 0, false
	if d.deadline > 0 {
		op.refs++
		d.eng.ScheduleHandler(d.deadline, &op.timeout)
	}
	op.refs++
	d.port.Submit(mem.Request{Addr: addr, Size: d.size, Write: write}, op.fn)
}

// release returns the op to the pool once nothing references it.
func (op *clientOp) release() {
	if op.refs != 0 {
		return
	}
	op.next = op.d.opFree
	op.d.opFree = op
}

// finishOutcome frees the window slot after a final outcome and backs
// the driver's issue loop.
func (op *clientOp) finishOutcome() {
	op.finished = true
	d := op.d
	d.inFlight--
	op.release()
	d.issue()
}

// complete handles a backend completion: success records end-to-end
// latency (from the first submission, so backoff time is visible in
// the tail), an error retries with exponential backoff until the
// budget runs out, then surfaces as failed.
func (op *clientOp) complete(r mem.Result) {
	op.refs--
	d := op.d
	if op.finished {
		// Abandoned at the deadline: the late completion is dropped.
		op.release()
		return
	}
	if r.Err {
		if d.measuring {
			d.errs++
		}
		if op.attempts < d.maxRetries {
			op.attempts++
			if d.measuring {
				d.retries++
			}
			// Exponential backoff: base, 2x base, 4x base, ...
			op.refs++
			d.eng.ScheduleHandler(d.backoff<<(op.attempts-1), &op.retry)
			return
		}
		if d.measuring {
			d.failed++
		}
		op.finishOutcome()
		return
	}
	if d.measuring {
		r.Submit = op.first
		wire := d.wireRead
		if op.write {
			wire = d.wireWrite
		}
		d.mon.Record(op.write, r, wire, uint64(d.size))
	}
	if d.rmw && !op.write {
		d.rmwPending.Push(r.Req.Addr)
	}
	op.finishOutcome()
}

// fireRetry resubmits after the backoff delay (unless the op was
// abandoned while waiting).
func (op *clientOp) fireRetry() {
	op.refs--
	d := op.d
	if op.finished {
		op.release()
		return
	}
	op.refs++
	d.port.Submit(mem.Request{Addr: op.addr, Size: d.size, Write: op.write}, op.fn)
}

// fireTimeout abandons the op at its deadline: the window slot is
// freed so the tenant makes forward progress, and whatever completion
// or retry is still pending dissolves on arrival.
func (op *clientOp) fireTimeout() {
	op.refs--
	d := op.d
	if op.finished {
		op.release()
		return
	}
	op.finished = true
	if d.measuring {
		d.abandoned++
	}
	d.inFlight--
	op.release()
	d.issue()
}

// runDrivers executes the (defaulted) spec's tenants over one built
// backend replica per group: warmup, monitor reset, measured window,
// per-tenant stats. Each tenant drives its home replica; a Remote
// fraction crosses the mesh to the other groups' replicas. A
// single-group run may also be decorated (Run rejects both decorators
// on sharded specs): with Options.Faults the backend is first wrapped
// in the fault injector (innermost: the device is what fails); with
// Options.Thermal the stack is then wrapped in the throttle decorator
// and the feedback runtime samples it throughout both windows (the
// device heats during warmup, like real hardware).
func runDrivers(spec Spec, o Options, mesh *sim.Mesh, backends []mem.Backend) (Result, error) {
	horizon := o.Warmup + o.Measure
	var inj *fault.Injector
	if o.Faults.Plan != "" {
		plan, err := fault.ParsePlan(o.Faults.Plan)
		if err != nil {
			return Result{}, err
		}
		if !plan.Zero() {
			inj, err = buildInjector(backends[0], plan, o.Seed)
			if err != nil {
				return Result{}, err
			}
			backends[0] = inj
		}
	}
	var loop *thermalLoop
	if o.Thermal {
		var err error
		loop, err = buildThermalLoop(o, backends[0])
		if err != nil {
			return Result{}, err
		}
		backends[0] = loop.throttle
		loop.runtime.Start(horizon)
	}
	drivers := make([]*tenantDriver, len(spec.Tenants))
	for ti, t := range spec.Tenants {
		be := backends[t.Home]
		port := be.Port(ti)
		if t.Remote > 0 {
			if mesh.Window() == 0 {
				// The lookahead window is the backends' latency floor:
				// no cross-shard access can land sooner, so
				// flush-aligned delivery at window boundaries never
				// reorders against local traffic a shard has already
				// committed. Without remote traffic the mesh stays
				// windowless and each Run is one barrier-free chunk.
				mesh.SetWindow(be.MinLatency())
			}
			peers := make([]mem.Port, len(backends))
			shards := make([]*sim.MeshShard, len(backends))
			for g := range backends {
				peers[g] = backends[g].Port(ti)
				shards[g] = mesh.Shard(g)
			}
			port = &meshPort{
				local:  port,
				shard:  mesh.Shard(t.Home),
				shards: shards,
				peers:  peers,
				home:   t.Home,
				groups: len(backends),
				frac:   t.Remote,
				// A dedicated stream, offset from the tenant's mix RNG,
				// so adding Remote to a tenant never perturbs its
				// read/write draws.
				rng: sim.NewRNG(gups.PortSeed(o.Seed, ti) ^ 0x5c5c5c5c),
			}
		}
		d, err := newTenantDriver(be, port, t, ti, o, horizon)
		if err != nil {
			return Result{}, err
		}
		drivers[ti] = d
		d.start()
	}
	if inj != nil {
		inj.Start(horizon)
	}
	measure(mesh, o, func() {
		for _, d := range drivers {
			d.mon.Reset()
			d.measuring = true
		}
	})

	accums := make([]monAccum, len(drivers))
	var total monAccum
	for ti, d := range drivers {
		accums[ti].Merge(d.mon)
		accums[ti].addResilience(d.errs, d.retries, d.abandoned, d.failed)
		total.Merge(d.mon)
		total.addResilience(d.errs, d.retries, d.abandoned, d.failed)
		d.mon.Release()
	}
	res := assemble(spec, o, accums, total)
	if loop != nil {
		res.Thermal = loop.stats()
	}
	// A decorator replaces backends[0], so only a bare channel set
	// asserts to *mem.DDR here.
	if be, ok := backends[0].(*mem.DDR); ok && len(backends) == 1 {
		res.RowHitRate = be.HitRate()
	}
	return res, nil
}
