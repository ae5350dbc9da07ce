package experiments

import (
	"fmt"

	"hmcsim/internal/hmc"
	"hmcsim/internal/scenario"
)

// Thermal exposes the closed-loop thermal feedback family: for each
// backend, an open-loop write-rate ladder crossed with the strongest
// and weakest Table III cooling environments, reporting where the
// throttle controller engages and what the oscillating derate levels
// cost in achieved throughput and write-latency tails; plus a
// thermal-aware vs naive tenant placement comparison on a chained
// system, where the per-hop cooling shadow makes the same hot set
// cheaper on an upstream cube. The open-loop figures (9-12) compute
// temperature from measured bandwidth after the fact; this family
// runs the loop the other way, letting temperature push back on the
// traffic while it flows.
func Thermal() []Experiment {
	out := make([]Experiment, 0, len(thermalSweepConfigs)+1)
	for _, c := range thermalSweepConfigs {
		out = append(out, Experiment{
			ID:    "ext-thermal-" + c.backend,
			Title: fmt.Sprintf("Thermal feedback sweep: write rate x cooling (%s)", c.label),
			Run: runReport(func(o Options) (*ExtThermalSweepData, error) {
				return ExtThermalSweep(o, c)
			}),
		})
	}
	return append(out, Experiment{
		ID:    "ext-thermal-placement",
		Title: "Thermal-aware vs naive tenant placement on a 4-cube chain",
		Run:   runReport(ExtThermalPlacement),
	})
}

// thermalSweepConfig pins one backend's sweep: the injector width and
// the per-port write-rate ladder, chosen so the bottom rung idles
// below every derate threshold and the top rung is admission-limited
// (offered past the backend's service rate, so the loop throttles a
// saturated device rather than a trickle).
type thermalSweepConfig struct {
	backend string
	label   string
	ports   int
	// perPortMRPS is the offered open-loop write arrival rate ladder,
	// per port, in million requests per second.
	perPortMRPS []float64
}

var thermalSweepConfigs = []thermalSweepConfig{
	{"hmc", "1 cube, 4 ports", 4, []float64{1, 8, 40}},
	{"ddr4", "1 channel, 4 ports", 4, []float64{1, 8, 40}},
	{"chain", "4 cubes, 4 ports", 4, []float64{1, 8, 40}},
}

// thermalCoolings brackets Table III: the strongest active cooling
// and the weakest passive one.
var thermalCoolings = []string{"Cfg1", "Cfg4"}

// thermalSweepPoint is one measured (cooling, rate) cell.
type thermalSweepPoint struct {
	Cooling      string
	OfferedMRPS  float64
	AchievedMRPS float64
	RawGBps      float64
	PeakC        float64
	HotZone      int
	Level        int     // hottest zone's final derate level
	LevelUps     uint64  // controller level-up transitions, all zones
	Shutdowns    uint64  // shutdown entries, all zones
	ThrottledPct float64 // hottest zone's derated sample share
	Rejected     uint64  // accesses refused while shut down
	Samples      uint64  // measured write completions
	P99, P999    float64 // write round-trip tails, ns
}

// ExtThermalSweepData holds one backend's feedback sweep.
type ExtThermalSweepData struct {
	Config thermalSweepConfig
	Points []thermalSweepPoint
}

// thermalSweepSpec compiles one sweep cell: uniform 128 B writes
// injected open-loop at the given per-port rate (writes are the
// paper's hottest mix, and the power model's write path is what the
// leakage fixed point feeds back into).
func thermalSweepSpec(c thermalSweepConfig, perPortMRPS float64) scenario.Spec {
	return scenario.Spec{
		Name:        fmt.Sprintf("th-%s-%g", c.backend, perPortMRPS),
		Description: "thermal feedback sweep cell",
		Backend:     c.backend,
		Tenants: []scenario.Tenant{{
			Name:   "heat",
			Ports:  c.ports,
			Mix:    "wo",
			Size:   128,
			Inject: scenario.Injection{Mode: "open", RateMRPS: perPortMRPS},
		}},
	}
}

// thermalOptions enables the feedback loop on top of the experiment's
// fidelity windows.
func thermalOptions(o Options, cooling string) scenario.Options {
	so := o.Options
	so.Thermal = true
	so.Cooling = cooling
	return so
}

// summarize folds a thermal run into a sweep point: system totals,
// the hottest zone's controller trajectory, and the write tails.
func summarize(res scenario.Result) thermalSweepPoint {
	p := thermalSweepPoint{
		AchievedMRPS: res.Total.MRPS,
		RawGBps:      res.Total.RawGBps,
		Rejected:     res.Thermal.Rejected,
	}
	for z, s := range res.Thermal.Zones {
		if s.MaxC > p.PeakC {
			p.PeakC, p.HotZone = s.MaxC, z
			p.Level, p.ThrottledPct = s.Level, s.ThrottledFrac*100
		}
		p.LevelUps += s.LevelUps
		p.Shutdowns += s.Shutdowns
	}
	if h := res.Total.WriteHistNs; h.N() > 0 {
		p.Samples = h.N()
		q := h.Percentiles(99, 99.9)
		p.P99, p.P999 = q[0], q[1]
	}
	return p
}

// ExtThermalSweep runs one backend's (cooling x rate) grid, fanning
// the cells across the worker pool. Every cell owns its own engine,
// throttle and thermal runtime, so the grid is deterministic in the
// worker count.
func ExtThermalSweep(o Options, c thermalSweepConfig) (*ExtThermalSweepData, error) {
	d := &ExtThermalSweepData{Config: c}
	n := len(thermalCoolings) * len(c.perPortMRPS)
	pts, err := parallelMap(o, n, func(i int) (thermalSweepPoint, error) {
		cooling := thermalCoolings[i/len(c.perPortMRPS)]
		rate := c.perPortMRPS[i%len(c.perPortMRPS)]
		res, err := scenario.Run(thermalSweepSpec(c, rate), thermalOptions(o, cooling))
		if err != nil {
			return thermalSweepPoint{}, err
		}
		p := summarize(res)
		p.Cooling = cooling
		p.OfferedMRPS = rate * float64(c.ports)
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	d.Points = pts
	return d, nil
}

// Report renders the grid: one row per (cooling, offered rate) with
// the controller's trajectory and the tails it inflates.
func (d *ExtThermalSweepData) Report() Report {
	g := Grid{
		Title: fmt.Sprintf("Closed-loop throttling, open-loop 128 B writes, %s", d.Config.label),
		Cols: []string{"Cooling", "Offered MRPS", "Achieved MRPS", "Raw GB/s",
			"Peak degC", "Level", "Level-ups", "Shutdowns", "Rejected",
			"Throttled %", "n", "p99 ns", "p99.9 ns"},
	}
	for _, p := range d.Points {
		n, p99, p999 := "-", "-", "-"
		if p.Samples > 0 {
			n = fmt.Sprintf("%d", p.Samples)
			p99, p999 = f0(p.P99), f0(p.P999)
		}
		g.AddRow(p.Cooling, f1(p.OfferedMRPS), f1(p.AchievedMRPS), f2(p.RawGBps),
			f1(p.PeakC), fmt.Sprintf("%d", p.Level),
			fmt.Sprintf("%d", p.LevelUps), fmt.Sprintf("%d", p.Shutdowns),
			fmt.Sprintf("%d", p.Rejected), f1(p.ThrottledPct), n, p99, p999)
	}
	return Report{
		ID:    "ext-thermal-" + d.Config.backend,
		Title: fmt.Sprintf("Thermal Feedback Sweep (%s)", d.Config.backend),
		Grids: []Grid{g},
		Notes: []string{
			"temperatures advance a lumped-RC model from live backend counters each sample; the controller derates one level per sample past each threshold and recovers with hysteresis",
			"level-ups and shutdowns count controller transitions across the whole run (warmup included — the device heats while it warms); peak/level/throttled% are the hottest zone's",
			"RC dynamics are compressed into sim time (temperatures real, clock accelerated); p99/p99.9 from log-bucketed write round-trip histograms, measured window only",
		},
	}
}

// placementCases contrast the placement experiment's two layouts: the
// chain's per-hop cooling shadow makes downstream cubes strictly
// worse hosts for a hot working set. "naive" lands the hotspot
// tenant's hot set on the last cube (packed from the top of the
// address space); "aware" rotates it onto cube 0, the best-cooled.
var placementCases = []struct {
	name   string
	offset uint64 // hotspot tenant's OffsetBytes
}{
	{"naive", 3 * hmc.Geometries(hmc.HMC11).SizeBytes},
	{"aware", 0},
}

// placementResult is one layout's measured outcome.
type placementResult struct {
	Name    string
	Res     scenario.Result
	Summary thermalSweepPoint
}

// ExtThermalPlacementData holds the placement comparison.
type ExtThermalPlacementData struct {
	Cases []placementResult
}

// placementSpec is the contended system both layouts share: a hotspot
// write tenant (the heat source under placement) alongside a uniform
// read tenant spread over the whole chain.
func placementSpec(offset uint64) scenario.Spec {
	return scenario.Spec{
		Name:        "th-placement",
		Description: "thermal placement cell",
		Topology:    "chain",
		Cubes:       4,
		Tenants: []scenario.Tenant{
			{
				Name: "hot", Ports: 4, Mix: "wo", Size: 128,
				Access: scenario.Access{Kind: "hotspot", HotFraction: 0.1, HotRate: 0.95, OffsetBytes: offset},
			},
			{
				Name: "scan", Ports: 2, Mix: "ro", Size: 128,
				Inject: scenario.Injection{Mode: "open", RateMRPS: 2},
			},
		},
	}
}

// ExtThermalPlacement runs both layouts under Cfg3 — strong enough
// that the well-placed layout only derates, weak enough that the
// naive one oscillates through shutdown.
func ExtThermalPlacement(o Options) (*ExtThermalPlacementData, error) {
	d := &ExtThermalPlacementData{}
	cases, err := parallelMap(o, len(placementCases), func(i int) (placementResult, error) {
		c := placementCases[i]
		res, err := scenario.Run(placementSpec(c.offset), thermalOptions(o, "Cfg3"))
		if err != nil {
			return placementResult{}, err
		}
		return placementResult{Name: c.name, Res: res, Summary: summarize(res)}, nil
	})
	if err != nil {
		return nil, err
	}
	d.Cases = cases
	return d, nil
}

// Report renders the comparison: the system-level thermal outcome of
// each layout, then the per-tenant service each one delivered.
func (d *ExtThermalPlacementData) Report() Report {
	sys := Grid{
		Title: "Placement vs thermal outcome (4-cube chain, Cfg3)",
		Cols: []string{"Placement", "Hot cube", "Peak degC", "Level-ups",
			"Shutdowns", "Rejected", "Throttled %", "Total MRPS", "Raw GB/s"},
	}
	ten := Grid{
		Title: "Per-tenant service under each placement",
		Cols:  []string{"Placement", "Tenant", "MRPS", "Lat mean ns", "p99 ns", "p99.9 ns"},
	}
	for _, c := range d.Cases {
		s := c.Summary
		sys.AddRow(c.Name, fmt.Sprintf("%d", s.HotZone), f1(s.PeakC),
			fmt.Sprintf("%d", s.LevelUps), fmt.Sprintf("%d", s.Shutdowns),
			fmt.Sprintf("%d", s.Rejected), f1(s.ThrottledPct),
			f1(s.AchievedMRPS), f2(s.RawGBps))
		for _, ts := range c.Res.Tenants {
			h := ts.WriteHistNs
			if ts.ReadHistNs.N() > 0 {
				h = ts.ReadHistNs
			}
			mean, p99, p999 := "-", "-", "-"
			if h.N() > 0 {
				q := h.Percentiles(99, 99.9)
				mean, p99, p999 = f0(h.Mean()), f0(q[0]), f0(q[1])
			}
			ten.AddRow(c.Name, ts.Name, f1(ts.MRPS), mean, p99, p999)
		}
	}
	return Report{
		ID:    "ext-thermal-placement",
		Title: "Thermal-Aware Tenant Placement (4-cube chain)",
		Grids: []Grid{sys, ten},
		Notes: []string{
			"naive packs the hotspot tenant's hot set onto the last cube of the chain — downstream in the cooling shadow (shared resistance scaled 1 + 0.15/hop); aware rotates it onto cube 0",
			"the workload is identical in both layouts; only the hot set's home cube moves, so the thermal delta is pure placement",
		},
	}
}
