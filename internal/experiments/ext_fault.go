package experiments

import (
	"fmt"

	"hmcsim/internal/scenario"
	"hmcsim/internal/sim"
)

// Faults exposes the fault-injection and resilience family: for each
// backend, a fault-intensity ladder (transient link-error rate crossed
// with stochastic zone outages) measured through retrying, deadlined
// clients — goodput, degradation accounting, availability and the
// read tails the retries inflate. The chain variant adds an
// outage-window timeline (a scripted mid-run cube failure and repair,
// sliced in time to show the throughput dip and post-repair recovery)
// and a chain-vs-ring comparison of the same outage, quantifying the
// ring's package-level reroute claim from Section II-B at the
// scenario level rather than the single-access probe of ext-chain.
func Faults() []Experiment {
	out := make([]Experiment, 0, len(faultSweepConfigs))
	for _, c := range faultSweepConfigs {
		if c.backend == "chain" {
			out = append(out, Experiment{
				ID:    "ext-fault-chain",
				Title: "Fault injection: intensity ladder, outage timeline and ring reroute (chain)",
				Run:   runReport(ExtFaultChain),
			})
			continue
		}
		out = append(out, Experiment{
			ID:    "ext-fault-" + c.backend,
			Title: fmt.Sprintf("Fault injection: availability and tails vs error rate (%s)", c.label),
			Run: runReport(func(o Options) (*ExtFaultSweepData, error) {
				return ExtFaultSweep(o, c)
			}),
		})
	}
	return out
}

// faultSweepConfig pins one backend's ladder shape.
type faultSweepConfig struct {
	backend string
	label   string
}

var faultSweepConfigs = []faultSweepConfig{
	{"hmc", "1 cube, 4 ports"},
	{"ddr4", "2 channels, 4 ports"},
	{"chain", "4 cubes, 4 ports"},
}

// faultRungs is the fault-intensity ladder every backend climbs: a
// clean rung (resilience armed, nothing injected), then transient
// CRC-retry rates correlated with stochastic zone outage pressure
// (shorter MTBF, longer MTTR as the rung rises). Rates are per
// request; MTBF/MTTR are per zone, exponential, seeded.
var faultRungs = []struct {
	label string
	plan  string
}{
	{"clean", ""},
	{"light", "rate=0.001,mtbf=400us,mttr=10us"},
	{"moderate", "rate=0.01,mtbf=200us,mttr=20us"},
	{"harsh", "rate=0.05,mtbf=100us,mttr=30us"},
}

// faultResilience is the client policy every cell shares: bounded
// retries with the backend's default backoff, and a deadline long
// past the healthy tails so only requests stuck against a downed
// zone are abandoned.
func faultResilience(plan string) scenario.Faults {
	return scenario.Faults{
		Plan:       plan,
		MaxRetries: 3,
		Deadline:   20 * sim.Microsecond,
	}
}

// faultSpec is the common cell workload: four closed-loop read ports
// over the whole address space, so errors, retries and outage windows
// show up directly in the read tails.
func faultSpec(c faultSweepConfig) scenario.Spec {
	s := scenario.Spec{
		Name:        "fl-" + c.backend,
		Description: "fault sweep cell",
		Backend:     c.backend,
		Tenants: []scenario.Tenant{{
			Name: "app", Ports: 4, Mix: "ro", Size: 128,
		}},
	}
	if c.backend == "ddr4" {
		s.Channels = 2
	}
	return s
}

// faultRunOptions arms injection and tail collection on top of the
// experiment's fidelity windows, replacing any caller overlay: the
// family is always injected, like ext-thermal is always closed-loop.
func faultRunOptions(o Options, fl scenario.Faults) scenario.Options {
	so := o.Options
	so.Faults = fl
	so.Tail = true
	return so
}

// faultSweepPoint is one measured rung.
type faultSweepPoint struct {
	Label     string
	Plan      string
	Goodput   float64 // successful MRPS
	RawGBps   float64
	Errors    uint64
	Retries   uint64
	Abandoned uint64
	Failed    uint64
	AvailPct  float64
	Samples   uint64
	P50, P99  float64 // read round-trip tails, ns
	P999      float64
}

// summarizeFaults folds a faulted run into a sweep point.
func summarizeFaults(res scenario.Result) faultSweepPoint {
	tot := res.Total
	p := faultSweepPoint{
		Goodput:   tot.GoodputMRPS,
		RawGBps:   tot.RawGBps,
		Errors:    tot.Errors,
		Retries:   tot.Retries,
		Abandoned: tot.Abandoned,
		Failed:    tot.Failed,
		AvailPct:  tot.Availability() * 100,
	}
	if h := tot.ReadHistNs; h.N() > 0 {
		p.Samples = h.N()
		q := h.Percentiles(50, 99, 99.9)
		p.P50, p.P99, p.P999 = q[0], q[1], q[2]
	}
	return p
}

// ExtFaultSweepData holds one backend's intensity ladder.
type ExtFaultSweepData struct {
	Config faultSweepConfig
	Points []faultSweepPoint
}

// ExtFaultSweep climbs the fault-intensity ladder on one backend,
// fanning the rungs across the worker pool. Every rung owns its own
// engine, injector and drivers; injector randomness is keyed by the
// run seed, so the grid is deterministic in the worker count.
func ExtFaultSweep(o Options, c faultSweepConfig) (*ExtFaultSweepData, error) {
	d := &ExtFaultSweepData{Config: c}
	pts, err := parallelMap(o, len(faultRungs), func(i int) (faultSweepPoint, error) {
		rung := faultRungs[i]
		res, err := scenario.Run(faultSpec(c), faultRunOptions(o, faultResilience(rung.plan)))
		if err != nil {
			return faultSweepPoint{}, err
		}
		p := summarizeFaults(res)
		p.Label, p.Plan = rung.label, rung.plan
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	d.Points = pts
	return d, nil
}

// sweepGrid renders the ladder: goodput, the degradation ledger and
// the read tails per rung.
func (d *ExtFaultSweepData) sweepGrid() Grid {
	g := Grid{
		Title: fmt.Sprintf("Fault-intensity ladder, closed-loop 128 B reads, %s", d.Config.label),
		Cols: []string{"Rung", "Plan", "Goodput MRPS", "Raw GB/s", "Errors",
			"Retries", "Abandoned", "Failed", "Avail %", "n", "p50 ns", "p99 ns", "p99.9 ns"},
	}
	for _, p := range d.Points {
		plan := p.Plan
		if plan == "" {
			plan = "-"
		}
		n, p50, p99, p999 := "-", "-", "-", "-"
		if p.Samples > 0 {
			n = fmt.Sprintf("%d", p.Samples)
			p50, p99, p999 = f0(p.P50), f0(p.P99), f0(p.P999)
		}
		g.AddRow(p.Label, plan, f1(p.Goodput), f2(p.RawGBps),
			fmt.Sprintf("%d", p.Errors), fmt.Sprintf("%d", p.Retries),
			fmt.Sprintf("%d", p.Abandoned), fmt.Sprintf("%d", p.Failed),
			f2(p.AvailPct), n, p50, p99, p999)
	}
	return g
}

var faultSweepNotes = []string{
	"transient rate stretches completions by one CRC-retransmission round trip (never an error); availability moves only when a zone outage errors requests past the retry budget",
	"clients retry errored requests up to 3 times with exponential backoff and abandon past a 20 us deadline; availability = successes/(successes+failed+abandoned)",
	"zone outages draw exponential MTBF/MTTR per zone from the run seed; tails from log-bucketed read round-trip histograms, measured window only",
}

// Report renders the single-grid sweep (hmc and ddr4 variants).
func (d *ExtFaultSweepData) Report() Report {
	return Report{
		ID:    "ext-fault-" + d.Config.backend,
		Title: fmt.Sprintf("Fault Injection Sweep (%s)", d.Config.backend),
		Grids: []Grid{d.sweepGrid()},
		Notes: faultSweepNotes,
	}
}

// faultSlice is one time slice of the outage timeline.
type faultSlice struct {
	Index   int
	FromUs  float64
	ToUs    float64
	Goodput float64 // successful MRPS within the slice
	Reads   uint64
	Errors  uint64
	Retries uint64
	Failed  uint64
	During  bool // slice overlaps the scripted outage window
}

// faultTopoResult is one topology's outcome under the scripted outage.
type faultTopoResult struct {
	Topology string
	Point    faultSweepPoint
	Reads    uint64
}

// ExtFaultChainData holds the chain family: the intensity ladder, the
// sliced outage timeline and the chain-vs-ring reroute comparison.
type ExtFaultChainData struct {
	Sweep  *ExtFaultSweepData
	Slices []faultSlice
	Topos  []faultTopoResult
}

const outageSlices = 8

// outagePlan scripts the timeline's failure: cube 2 dies 3/8 into the
// measured window and is repaired at 6/8, over a light transient
// rate. Times are computed from the fidelity windows so the outage
// lands inside the measured window at every fidelity.
func outagePlan(o Options) string {
	fail := int64(o.Warmup + 3*o.Measure/8)
	repair := int64(o.Warmup + 6*o.Measure/8)
	return fmt.Sprintf("rate=0.005,fail=2@%dps,repair=2@%dps", fail, repair)
}

// ExtFaultChain runs the chain variant: the ladder, then the outage
// timeline as prefix horizons (the engine is deterministic, so a run
// measured for k/8 of the window is byte-for-byte a prefix of the
// full run; differencing cumulative counters between consecutive
// horizons yields exact per-slice traffic without any mid-run
// sampling hooks), then the same scripted outage on a ring.
func ExtFaultChain(o Options) (*ExtFaultChainData, error) {
	cfg := faultSweepConfigs[2] // chain
	sweep, err := ExtFaultSweep(o, cfg)
	if err != nil {
		return nil, err
	}
	d := &ExtFaultChainData{Sweep: sweep}

	// A visible backoff makes the outage cost slot time: a request
	// stuck against the dead half holds its window slot through three
	// backed-off retries (~11 us) instead of failing at wire speed, so
	// the goodput dip in the timeline reflects real head-of-line loss.
	plan := outagePlan(o)
	fl := scenario.Faults{
		Plan:       plan,
		MaxRetries: 3,
		Backoff:    sim.Microsecond,
		Deadline:   20 * sim.Microsecond,
	}
	// The first outageSlices cells run the chain to the timeline's
	// prefix horizons. The last of them covers the whole window, so it
	// is also the chain row of the reroute comparison; the final cell
	// runs the ring.
	runs, err := parallelMap(o, outageSlices+1, func(i int) (scenario.Result, error) {
		spec, po := faultSpec(cfg), o
		if i < outageSlices {
			po.Measure = o.Measure * sim.Duration(i+1) / outageSlices
		} else {
			spec.Name, spec.Topology = "fl-ring-outage", "ring"
		}
		return scenario.Run(spec, faultRunOptions(po, fl))
	})
	if err != nil {
		return nil, err
	}
	sliceSecs := (o.Measure / outageSlices).Seconds()
	var prev scenario.TenantStats
	for i, r := range runs[:outageSlices] {
		tot := r.Total
		reads := tot.Reads - prev.Reads
		d.Slices = append(d.Slices, faultSlice{
			Index:   i + 1,
			FromUs:  o.Measure.Microseconds() * float64(i) / outageSlices,
			ToUs:    o.Measure.Microseconds() * float64(i+1) / outageSlices,
			Goodput: float64(reads) / sliceSecs / 1e6,
			Reads:   reads,
			Errors:  tot.Errors - prev.Errors,
			Retries: tot.Retries - prev.Retries,
			Failed:  tot.Failed - prev.Failed,
			During:  i+1 > 3*outageSlices/8 && i < 6*outageSlices/8,
		})
		prev = tot
	}
	for i, topo := range []string{"chain", "ring"} {
		r := runs[outageSlices-1+i]
		d.Topos = append(d.Topos, faultTopoResult{Topology: topo, Point: summarizeFaults(r), Reads: r.Total.Reads})
	}
	return d, nil
}

// Report renders the three chain grids.
func (d *ExtFaultChainData) Report() Report {
	tl := Grid{
		Title: "Outage timeline: cube 2 fails 3/8 in, repaired at 6/8 (4-cube chain)",
		Cols: []string{"Slice", "Window us", "Goodput MRPS", "Reads", "Errors",
			"Retries", "Failed", "Outage"},
	}
	for _, s := range d.Slices {
		mark := ""
		if s.During {
			mark = "down"
		}
		tl.AddRow(fmt.Sprintf("%d", s.Index),
			fmt.Sprintf("%.1f-%.1f", s.FromUs, s.ToUs),
			f1(s.Goodput), fmt.Sprintf("%d", s.Reads), fmt.Sprintf("%d", s.Errors),
			fmt.Sprintf("%d", s.Retries), fmt.Sprintf("%d", s.Failed), mark)
	}
	tp := Grid{
		Title: "Same outage, chain vs ring wiring",
		Cols: []string{"Topology", "Goodput MRPS", "Reads", "Errors", "Failed",
			"Avail %", "p99 ns"},
	}
	for _, t := range d.Topos {
		p := t.Point
		tp.AddRow(t.Topology, f1(p.Goodput), fmt.Sprintf("%d", t.Reads),
			fmt.Sprintf("%d", p.Errors), fmt.Sprintf("%d", p.Failed),
			f2(p.AvailPct), f0(p.P99))
	}
	notes := append([]string{
		"timeline slices difference cumulative counters across prefix horizons of one deterministic run: goodput dips while cube 2 is down and recovers after repair",
		"a chain severs cubes 2 and 3 when cube 2 dies (half the address space errors); a ring reroutes around the failed package and loses only cube 2's quarter",
	}, faultSweepNotes...)
	return Report{
		ID:    "ext-fault-chain",
		Title: "Fault Injection Sweep, Outage Timeline and Ring Reroute (chain)",
		Grids: []Grid{d.Sweep.sweepGrid(), tl, tp},
		Notes: notes,
	}
}
