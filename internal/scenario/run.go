package scenario

import (
	"fmt"

	"hmcsim/internal/chain"
	"hmcsim/internal/cooling"
	"hmcsim/internal/fpga"
	"hmcsim/internal/gups"
	"hmcsim/internal/mem"
	"hmcsim/internal/sim"
	"hmcsim/internal/stats"
)

// Options bound a scenario run. The zero value selects the figure
// runs' publication-fidelity windows.
type Options struct {
	// Warmup is discarded simulated time before measurement
	// (default 150 us).
	Warmup sim.Duration
	// Measure is the measured window (default 800 us).
	Measure sim.Duration
	// Seed perturbs every tenant's random streams.
	Seed uint64
	// Tail appends the tail-latency percentile grid (p50/p90/p99/
	// p99.9 per tenant and direction) to the rendered report. The
	// telemetry itself is always collected; the gate only controls
	// rendering, so recorded report formats stay stable unless a
	// caller opts in.
	Tail bool
	// Thermal closes the thermal/power feedback loop: a runtime
	// advances per-zone lumped-RC surface temperatures from live
	// backend counters and throttles (then shuts down) the backend as
	// derate thresholds are crossed, recovering with hysteresis.
	// Single-engine runs only (Groups == 1); the report gains a
	// thermal grid, so recorded formats change only when a caller
	// opts in.
	Thermal bool
	// Cooling names the Table III cooling environment the feedback
	// loop simulates ("Cfg1".."Cfg4", default Cfg2). Ignored unless
	// Thermal is set; an unknown name is an error.
	Cooling string
	// Faults configures fault injection and client-side resilience;
	// see Faults. Single-engine runs only (Groups == 1), like Thermal.
	// The report gains a resilience grid when active, so recorded
	// formats change only when a caller opts in (or a backend actually
	// errors).
	Faults Faults
	// Traffic overlays a traffic model on every tenant of the spec
	// (the CLI's -traffic flag): a ParseTraffic string such as
	// "open:4", "phases:2@100us,~8@100us", "burst:8/0.5@20us/80us" or
	// "diurnal:2..16@400us". Each tenant keeps its own Outstanding
	// window; the overlaid spec passes through Validate as usual.
	// Empty leaves the spec's injection untouched.
	Traffic string
	// SLONs sets a latency SLO target in nanoseconds on every tenant
	// that does not declare its own QoS (the CLI's -slo-ns flag),
	// activating the SLO report grid.
	SLONs float64
	// Shards is the requested worker count for sharded specs
	// (Spec.Groups > 1): how many goroutines execute the PDES mesh's
	// shards concurrently, arbitrated against the process-wide
	// runner.Cores budget. 0 or 1 runs sequentially. Results are
	// byte-identical at every value — the partition is fixed by the
	// spec, Shards only schedules it — so the flag is purely a
	// wall-clock knob.
	Shards int
}

func (o Options) withDefaults() Options {
	if o.Warmup == 0 {
		o.Warmup = 150 * sim.Microsecond
	}
	if o.Measure == 0 {
		o.Measure = 800 * sim.Microsecond
	}
	return o
}

// TenantStats aggregates one tenant's measured traffic.
type TenantStats struct {
	Name   string
	Reads  uint64
	Writes uint64
	// RawGBps includes request/response headers and tails on the
	// packet-switched backends (the quantity the paper's bandwidth
	// figures report) and data-bus occupancy on ddr4; DataGBps is
	// payload only.
	RawGBps, DataGBps float64
	// MRPS is million requests (reads+writes) per second.
	MRPS float64
	// ReadHistNs / WriteHistNs are the merged latency records across
	// the tenant's ports (warmup excluded): exact mean/min/max and
	// log-bucketed tails of the measured round trips per direction;
	// nil when no request of that direction completed in the window.
	ReadHistNs  *stats.LogHist
	WriteHistNs *stats.LogHist
	// Errors counts errored completions observed in the window (every
	// attempt, including ones a later retry rescued). Zero on a
	// healthy run, so the columns above keep their historical values.
	Errors uint64
	// Retries counts driver resubmissions after errored completions.
	Retries uint64
	// Abandoned counts requests given up at their deadline.
	Abandoned uint64
	// Failed counts requests whose retries were exhausted — the final
	// errors the client actually saw.
	Failed uint64
	// GoodputMRPS is the successful-completion rate — the requests
	// that actually returned data, named for its role in the
	// resilience grid. Errored completions and abandoned requests
	// never count toward it (or toward MRPS).
	GoodputMRPS float64
	// Class and SLOTargetNs carry the tenant's QoS annotation ("" / 0
	// without one); SLOMet counts measured successful completions at
	// or under the target (bucket granularity of the latency
	// histograms).
	Class       string
	SLOTargetNs float64
	SLOMet      uint64
	// OfferedMRPS is the open-loop arrival rate the rounded pacing
	// intervals actually realize (0 for closed loop): the requested
	// rate after kernel-resolution rounding, averaged over phase and
	// burst schedules. Reported beside the requested rate in load
	// sweeps so interval rounding is never silent.
	OfferedMRPS float64
}

// Availability is the fraction of finished requests that succeeded:
// successes / (successes + failed + abandoned). 0 when nothing
// finished in the window — a total outage renders as 0% available
// (never NaN), not a vacuous 100%.
func (ts TenantStats) Availability() float64 {
	ok := ts.Reads + ts.Writes
	total := ok + ts.Failed + ts.Abandoned
	if total == 0 {
		return 0
	}
	return float64(ok) / float64(total)
}

// SLOFraction is the share of measured successful completions at or
// under the tenant's SLO target; 0 when nothing completed (a total
// outage meets no SLO) or when the tenant has no target.
func (ts TenantStats) SLOFraction() float64 {
	n := ts.Reads + ts.Writes
	if n == 0 || ts.SLOTargetNs <= 0 {
		return 0
	}
	return float64(ts.SLOMet) / float64(n)
}

// monAccum is a gups.Monitor plus the tenant drivers' resilience
// counters. It folds port monitors with integer arithmetic
// (Monitor.Merge), deferring the rate divisions to one final step —
// the same order of float operations the GUPS runner uses, so a
// scenario that reduces to a GUPS config reproduces its numbers
// bit-for-bit.
type monAccum struct {
	gups.Monitor
	errs, retries     uint64
	abandoned, failed uint64
}

// addResilience folds one driver's error/retry accounting.
func (a *monAccum) addResilience(errs, retries, abandoned, failed uint64) {
	a.errs += errs
	a.retries += retries
	a.abandoned += abandoned
	a.failed += failed
}

func (a monAccum) stats(name string, secs float64) TenantStats {
	ts := TenantStats{
		Name:        name,
		Reads:       a.Reads,
		Writes:      a.Writes,
		ReadHistNs:  a.ReadHistNs,
		WriteHistNs: a.WriteHistNs,
		Errors:      a.errs,
		Retries:     a.retries,
		Abandoned:   a.abandoned,
		Failed:      a.failed,
	}
	// A zero-length window (a tenant whose lifecycle never overlaps
	// the measured window, or a degenerate slice) renders 0 rates,
	// never Inf/NaN.
	if secs > 0 {
		ts.RawGBps = float64(a.RawBytes) / secs / 1e9
		ts.DataGBps = float64(a.DataBytes) / secs / 1e9
		ts.MRPS = float64(a.Reads+a.Writes) / secs / 1e6
		ts.GoodputMRPS = ts.MRPS
	}
	return ts
}

// Result is a completed scenario run.
type Result struct {
	Spec    Spec
	Elapsed sim.Duration
	Tenants []TenantStats
	// Total folds every tenant together.
	Total TenantStats
	// Tail mirrors Options.Tail: Report appends the tail-latency
	// percentile grid when set.
	Tail bool
	// Thermal carries the feedback-loop telemetry when the run was
	// made with Options.Thermal; nil otherwise.
	Thermal *ThermalStats
	// Faults records whether the run had fault injection or client
	// resilience active: Report then always renders the resilience
	// grid (it also appears unsolicited whenever a backend errored).
	Faults bool
	// SLO records whether any tenant carried a QoS target: Report
	// then renders the SLO grid.
	SLO bool
	// RowHitRate is the DDR4 row-buffer hit rate over the whole run,
	// warmup included, when the run's only backend is an undecorated
	// ddr4 channel set (no fault injector, no thermal throttle); 0 on
	// every other run. Report does not render it.
	RowHitRate float64
}

// effective is the normalization Run executes and CacheBytes keys:
// defaults, the spec's window override, the cooling name, and the
// traffic overlay absorbed into the tenants. A traffic overlay that
// does not parse is left raw in o, beside the error.
func effective(spec Spec, o Options) (Spec, Options, error) {
	spec = spec.withDefaults()
	o = o.withDefaults()
	if spec.Warmup != 0 {
		o.Warmup = spec.Warmup
	}
	if spec.Measure != 0 {
		o.Measure = spec.Measure
	}
	if !o.Thermal {
		o.Cooling = ""
	} else if o.Cooling == "" {
		o.Cooling = "Cfg2"
	}
	overlaid, err := applyTraffic(spec, o)
	if err != nil {
		return spec, o, err
	}
	o.Traffic, o.SLONs = "", 0
	return overlaid.withDefaults(), o, nil
}

// Prepare returns the spec and options Run executes for (spec, o), or
// the error Run would return, without simulating. Preparing a prepared
// pair is the identity, and it keys the same cache cell.
func Prepare(spec Spec, o Options) (Spec, Options, error) {
	spec, o, err := effective(spec, o)
	if err != nil {
		return Spec{}, Options{}, err
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, Options{}, err
	}
	if o.Faults.Active() {
		if err := o.Faults.validate(); err != nil {
			return Spec{}, Options{}, fmt.Errorf("scenario %q: %w", spec.Name, err)
		}
	}
	if o.Thermal {
		if _, err := cooling.ByName(o.Cooling); err != nil {
			return Spec{}, Options{}, fmt.Errorf("scenario %q: %w", spec.Name, err)
		}
	}
	if spec.Groups > 1 {
		if o.Thermal {
			return Spec{}, Options{}, fmt.Errorf("scenario %q: thermal feedback runs on the single-engine path (Groups == 1)", spec.Name)
		}
		if o.Faults.Active() {
			return Spec{}, Options{}, fmt.Errorf("scenario %q: fault injection runs on the single-engine path (Groups == 1)", spec.Name)
		}
	}
	return spec, o, nil
}

// Run compiles and executes a scenario on its backend. Every spec runs
// on a sim.Mesh of Spec.Groups shards (with one group and no lookahead
// window the mesh is exactly Engine.RunUntil) through one of two
// runners: runPorts keeps the cycle-accurate gups.Port issue loops for
// plain hmc runs, and runDrivers puts the backend-generic tenant
// drivers on everything else.
func Run(spec Spec, o Options) (Result, error) {
	spec, o, err := Prepare(spec, o)
	if err != nil {
		return Result{}, err
	}
	mesh := sim.NewMesh(spec.Groups)
	defer mesh.Release()
	if spec.Backend == "hmc" && !o.Thermal && !o.Faults.Active() && !spec.needsGenericDrivers() {
		return runPorts(spec, o, mesh)
	}
	// Thermal throttling and fault injection decorate the backend,
	// which gups.Port rigs wire straight to their board, and the
	// generic-only traffic features (burst, ramps, lifecycle) run on
	// the tenant drivers; hmc runs with any of them take this runner.
	backends, err := buildBackends(spec, mesh)
	if err != nil {
		return Result{}, err
	}
	return runDrivers(spec, o, mesh, backends)
}

// MustRun is Run that panics on spec errors (tests, examples).
func MustRun(spec Spec, o Options) Result {
	r, err := Run(spec, o)
	if err != nil {
		panic(err)
	}
	return r
}

// runPorts executes an hmc spec on the cycle-accurate gups.Port issue
// loops (tag pool, write FIFO, bank stop signal), driven through each
// board's mem.Backend shim: every tenant's ports share its home
// board's cube, contending for links, vaults and banks exactly as nine
// GUPS ports do.
func runPorts(spec Spec, o Options, mesh *sim.Mesh) (Result, error) {
	rigs, owners, err := buildRigs(spec, o, mesh)
	if err != nil {
		return Result{}, err
	}
	for _, rig := range rigs {
		for _, p := range rig.Ports {
			p.Start()
		}
	}
	measure(mesh, o, func() {
		for _, rig := range rigs {
			for _, p := range rig.Ports {
				p.ResetMonitor()
				p.SetMeasuring(true)
			}
		}
	})

	accums := make([]monAccum, len(spec.Tenants))
	var total monAccum
	for g, rig := range rigs {
		for pi, p := range rig.Ports {
			m := p.TakeMonitor()
			accums[owners[g][pi]].Merge(m)
			total.Merge(m)
			m.Release()
		}
	}
	return assemble(spec, o, accums, total), nil
}

// buildRigs lowers the tenants onto per-port GUPS configs and builds
// one AC-510 board per group (the EX-700 carrier shape when Groups >
// 1), each holding its tenants' ports in spec order. Each port's
// traffic is its tenant's lowering keyed by the global port index, so
// a single-tenant uniform scenario reproduces gups.Run
// byte-identically, tenant streams do not depend on the partition,
// and splitting a tenant of k ports into k one-port tenants changes
// nothing. owners[g][i] is the tenant behind board g's port i.
func buildRigs(spec Spec, o Options, mesh *sim.Mesh) ([]*gups.Rig, [][]int, error) {
	pcs := make([][]gups.PortConfig, spec.Groups)
	owners := make([][]int, spec.Groups)
	gi := 0
	for ti, t := range spec.Tenants {
		for k := 0; k < t.Ports; k++ {
			ty, gen, err := t.traffic(o.Seed, gi)
			if err != nil {
				return nil, nil, err
			}
			pc := gups.PortConfig{Type: ty, ReadFraction: t.ReadFraction, Gen: gen, Outstanding: t.Inject.Outstanding}
			if a := newArrivals(t, 1, gen.Seed, o.Warmup+o.Measure); a != nil {
				// Each port paces its own share of the tenant's rate.
				pc.Arrivals = a
			}
			pcs[t.Home] = append(pcs[t.Home], pc)
			owners[t.Home] = append(owners[t.Home], ti)
			gi++
		}
	}
	rigs := make([]*gups.Rig, spec.Groups)
	for g := range rigs {
		rig, err := hmcBoard(mesh.Shard(g).Engine(), len(pcs[g]), pcs[g])
		if err != nil {
			return nil, nil, err
		}
		rigs[g] = rig
	}
	return rigs, owners, nil
}

// hmcBoard builds one AC-510 board on eng: an HMC11 cube behind a
// controller with at least ports hardware ports, and pcs' issue loops
// on it.
func hmcBoard(eng *sim.Engine, ports int, pcs []gups.PortConfig) (*gups.Rig, error) {
	fp := fpga.DefaultParams()
	fp.Ports = max(fp.Ports, ports)
	return gups.BuildRigPortsOn(eng, gups.Config{FPGAParams: &fp}, pcs)
}

// buildBackends builds one backend replica per group on the mesh's
// shard engines, each an equal share of the spec's cubes or channels:
// an AC-510 board with a controller port per tenant index, a set of
// interleaved DDR4-2400 channels, or a chain or ring of cubes.
func buildBackends(spec Spec, mesh *sim.Mesh) ([]mem.Backend, error) {
	backends := make([]mem.Backend, spec.Groups)
	for g := range backends {
		eng := mesh.Shard(g).Engine()
		switch spec.Backend {
		case "hmc":
			rig, err := hmcBoard(eng, len(spec.Tenants), nil)
			if err != nil {
				return nil, err
			}
			backends[g] = rig.Backend
		case "ddr4":
			be, err := mem.NewDDR(eng, mem.DDRConfig{Channels: spec.Channels / spec.Groups})
			if err != nil {
				return nil, err
			}
			backends[g] = be
		default: // chain
			topo := chain.Chain
			if spec.Topology == "ring" {
				topo = chain.Ring
			}
			nw, err := chain.NewNetwork(eng, spec.Cubes/spec.Groups, topo, chain.DefaultParams())
			if err != nil {
				return nil, err
			}
			backends[g] = mem.NewChain(eng, nw)
		}
	}
	return backends, nil
}

// liveSeconds is the tenant's live overlap with the measured window,
// in seconds: reported rates are normalized to the time the tenant
// could actually issue, so a churned tenant shows its true rate.
func liveSeconds(t Tenant, o Options) float64 {
	start, end := sim.Time(t.Start), o.Warmup+o.Measure
	if t.Stop > 0 && sim.Time(t.Stop) < end {
		end = sim.Time(t.Stop)
	}
	if start < o.Warmup {
		start = o.Warmup
	}
	if end <= start {
		return 0
	}
	return sim.Duration(end - start).Seconds()
}

// assemble folds per-tenant accumulators into the run result: rates
// over each tenant's live window, QoS/SLO annotation straight from
// the latency histograms, and the aggregate row over the full window.
// Every compilation path (gups ports, generic drivers, sharded mesh)
// ends here, so reports agree field-for-field across them.
func assemble(spec Spec, o Options, accums []monAccum, total monAccum) Result {
	res := Result{Spec: spec, Elapsed: o.Measure, Tail: o.Tail, Faults: o.Faults.Active()}
	var offered float64
	for i, a := range accums {
		t := spec.Tenants[i]
		ts := a.stats(t.Name, liveSeconds(t, o))
		annotate(&ts, t)
		offered += ts.OfferedMRPS
		if ts.SLOTargetNs > 0 {
			res.SLO = true
		}
		res.Tenants = append(res.Tenants, ts)
	}
	res.Total = total.stats("total", o.Measure.Seconds())
	res.Total.OfferedMRPS = offered
	return res
}

// annotate applies the tenant's QoS class, SLO accounting and
// realized offered rate to its assembled stats.
func annotate(ts *TenantStats, t Tenant) {
	ts.OfferedMRPS = t.OfferedMRPS()
	if t.QoS.TargetNs <= 0 {
		return
	}
	ts.Class = t.QoS.Class
	if ts.Class == "" {
		ts.Class = t.Name
	}
	ts.SLOTargetNs = t.QoS.TargetNs
	thr := int64(t.QoS.TargetNs)
	ts.SLOMet = ts.ReadHistNs.CountAtMost(thr) + ts.WriteHistNs.CountAtMost(thr)
}

// String renders a one-line summary of the run.
func (r Result) String() string {
	return fmt.Sprintf("%s (%s, %d tenants): %.2f GB/s raw, %.1f MRPS, read lat avg %.0f ns",
		r.Spec.Name, r.Spec.Topology, len(r.Tenants), r.Total.RawGBps, r.Total.MRPS,
		r.Total.ReadHistNs.Mean())
}
