package experiments

import (
	"fmt"

	"hmcsim/internal/scenario"
	"hmcsim/internal/sim"
)

// SLO exposes the QoS/SLO characterization family: for each backend,
// two service classes (a latency-sensitive "gold" tenant and a
// throughput "bulk" tenant) ride a shared phase-scripted rate ladder
// that climbs from deep unsaturation to past the service knee. The
// per-phase grid differences cumulative SLO counters across prefix
// horizons of one deterministic run, so the SLO-met fraction is shown
// collapsing phase by phase as the offered load crosses the knee —
// the scenario-level restatement of the paper's load-latency curve in
// service-level terms.
func SLO() []Experiment {
	out := make([]Experiment, 0, len(sloConfigs))
	for _, c := range sloConfigs {
		out = append(out, Experiment{
			ID:    "ext-slo-" + c.backend,
			Title: fmt.Sprintf("QoS classes: SLO attainment across a phased load ladder (%s)", c.label),
			Run: runReport(func(o Options) (*ExtSLOData, error) {
				return ExtSLO(o, c)
			}),
		})
	}
	return out
}

// sloConfig pins one backend's ladder: the class widths, the shared
// per-port phase rates (the top rung exceeds the backend's closed-loop
// service rate, so the final phase saturates), and the per-class
// latency targets, set between the unsaturated and saturated tails so
// attainment is high early and collapses late.
type sloConfig struct {
	backend              string
	label                string
	goldPorts, bulkPorts int
	// perPortMRPS is the per-port arrival rate of each of the four
	// phases; both classes follow the same schedule.
	perPortMRPS [sloPhaseCount]float64
	// goldNs/bulkNs are the class latency targets in nanoseconds.
	goldNs, bulkNs float64
}

const sloPhaseCount = 4

var sloConfigs = []sloConfig{
	// 9 ports saturate one cube near 136 MRPS at 128 B; 9 x 16 = 144
	// offered in the last phase tops out past the knee. Unsaturated
	// reads land near 800 ns, saturated p99 near 4.7 us.
	{"hmc", "1 cube, 3+6 ports", 3, 6, [sloPhaseCount]float64{2, 8, 12, 16}, 1000, 3000},
	// One DDR4-2400 channel serves ~150 MRPS at 128 B; 4 x 40 = 160
	// crosses it. Healthy reads are ~80 ns, saturated ~1.1 us.
	{"ddr4", "1 channel, 2+2 ports", 2, 2, [sloPhaseCount]float64{2, 8, 24, 40}, 200, 800},
	// A 4-cube chain serves ~68 MRPS at 128 B; 4 x 20 = 80 offered.
	// Low-load reads span 460-920 ns by cube depth, saturated ~3.9 us.
	{"chain", "4 cubes, 2+2 ports", 2, 2, [sloPhaseCount]float64{1, 4, 16, 20}, 1000, 3000},
}

// sloSpec compiles the two-class workload: uniform 128 B reads, both
// tenants phased on the same four-rung ladder. The first phase
// stretches over the warmup so each later phase occupies exactly one
// measured quarter; no ramps, so on hmc the schedule lowers onto the
// native gups port path. The spec depends on the full fidelity
// windows and must be built once per experiment — the prefix-horizon
// slices below shorten only the options, never the schedule.
func sloSpec(c sloConfig, o Options) scenario.Spec {
	q := o.Measure / sloPhaseCount
	phases := make([]scenario.RatePhase, sloPhaseCount)
	for i, r := range c.perPortMRPS {
		phases[i] = scenario.RatePhase{RateMRPS: r, Duration: q}
	}
	phases[0].Duration = o.Warmup + q
	phases[sloPhaseCount-1].Duration = o.Measure - (sloPhaseCount-1)*q
	tenant := func(name string, ports int, targetNs float64) scenario.Tenant {
		return scenario.Tenant{
			Name:   name,
			Ports:  ports,
			Size:   128,
			Inject: scenario.Injection{Mode: "phased", Phases: phases},
			QoS:    scenario.QoS{Class: name, TargetNs: targetNs},
		}
	}
	return scenario.Spec{
		Name:        "slo-" + c.backend,
		Description: "QoS class ladder cell",
		Backend:     c.backend,
		Tenants: []scenario.Tenant{
			tenant("gold", c.goldPorts, c.goldNs),
			tenant("bulk", c.bulkPorts, c.bulkNs),
		},
	}
}

// sloPhaseRow is one rung of the per-phase attainment grid: the
// differenced traffic and SLO counters of one measured quarter.
type sloPhaseRow struct {
	Index        int
	PerPortMRPS  float64
	OfferedMRPS  float64 // requested aggregate over both classes
	AchievedMRPS float64 // achieved aggregate within the phase
	GoldN        uint64
	GoldMetPct   float64
	BulkN        uint64
	BulkMetPct   float64
}

// ExtSLOData holds one backend's family: the per-phase attainment
// rows and the full-run per-class summary.
type ExtSLOData struct {
	Config sloConfig
	Phases []sloPhaseRow
	// Final is the full-horizon per-tenant view (gold, bulk).
	Final []scenario.TenantStats
}

// sloCum carries one prefix horizon's cumulative counters.
type sloCum struct {
	met, n [2]uint64
	total  uint64
	final  []scenario.TenantStats
}

// ExtSLO runs the family: one deterministic run measured at four
// prefix horizons (a run measured for k/4 of the window is
// byte-for-byte a prefix of the full run, so differencing cumulative
// SLO counters between consecutive horizons yields exact per-phase
// attainment without mid-run sampling hooks — the ext-fault timeline
// technique applied to QoS counters). The phase schedule is anchored
// so measured quarter k runs entirely at ladder rate k.
func ExtSLO(o Options, c sloConfig) (*ExtSLOData, error) {
	d := &ExtSLOData{Config: c}
	spec := sloSpec(c, o)
	so := o.Options
	// The family scripts its own ladder and classes; a caller overlay
	// would replace the schedule under the slicing.
	so.Traffic, so.SLONs = "", 0
	cums, err := parallelMap(o, sloPhaseCount, func(i int) (sloCum, error) {
		po := so
		po.Measure = o.Measure * sim.Duration(i+1) / sloPhaseCount
		res, err := scenario.Run(spec, po)
		if err != nil {
			return sloCum{}, err
		}
		cum := sloCum{}
		for ti, ts := range res.Tenants {
			cum.met[ti] = ts.SLOMet
			cum.n[ti] = ts.Reads + ts.Writes
			cum.total += ts.Reads + ts.Writes
		}
		if i == sloPhaseCount-1 {
			cum.final = res.Tenants
		}
		return cum, nil
	})
	if err != nil {
		return nil, err
	}
	ports := float64(c.goldPorts + c.bulkPorts)
	var prev sloCum
	for i, cum := range cums {
		row := sloPhaseRow{
			Index:       i + 1,
			PerPortMRPS: c.perPortMRPS[i],
			OfferedMRPS: c.perPortMRPS[i] * ports,
		}
		sliceSecs := (o.Measure*sim.Duration(i+1)/sloPhaseCount -
			o.Measure*sim.Duration(i)/sloPhaseCount).Seconds()
		row.AchievedMRPS = float64(cum.total-prev.total) / sliceSecs / 1e6
		row.GoldN = cum.n[0] - prev.n[0]
		row.BulkN = cum.n[1] - prev.n[1]
		if row.GoldN > 0 {
			row.GoldMetPct = float64(cum.met[0]-prev.met[0]) / float64(row.GoldN) * 100
		}
		if row.BulkN > 0 {
			row.BulkMetPct = float64(cum.met[1]-prev.met[1]) / float64(row.BulkN) * 100
		}
		prev = cum
		d.Phases = append(d.Phases, row)
	}
	d.Final = cums[sloPhaseCount-1].final
	return d, nil
}

// Report renders the per-phase attainment collapse and the full-run
// class summary.
func (d *ExtSLOData) Report() Report {
	ph := Grid{
		Title: fmt.Sprintf("SLO attainment per phase, uniform 128 B reads, %s", d.Config.label),
		Cols: []string{"Phase", "Rate/port MRPS", "Offered MRPS", "Achieved MRPS",
			"gold n", "gold met %", "bulk n", "bulk met %"},
	}
	for _, p := range d.Phases {
		ph.AddRow(fmt.Sprintf("%d", p.Index), f1(p.PerPortMRPS), f1(p.OfferedMRPS),
			f1(p.AchievedMRPS), fmt.Sprintf("%d", p.GoldN), f1(p.GoldMetPct),
			fmt.Sprintf("%d", p.BulkN), f1(p.BulkMetPct))
	}
	cl := Grid{
		Title: "Full-run class summary",
		Cols:  []string{"Class", "Target ns", "n", "Met %", "Goodput MRPS", "p99 ns"},
	}
	for _, ts := range d.Final {
		p99 := "-"
		if h := ts.ReadHistNs; h.N() > 0 {
			p99 = f0(h.Percentile(99))
		}
		cl.AddRow(ts.Class, f0(ts.SLOTargetNs), fmt.Sprintf("%d", ts.Reads+ts.Writes),
			f1(ts.SLOFraction()*100), f1(ts.GoodputMRPS), p99)
	}
	return Report{
		ID:    "ext-slo-" + d.Config.backend,
		Title: fmt.Sprintf("QoS Classes Across a Phased Load Ladder (%s)", d.Config.backend),
		Grids: []Grid{ph, cl},
		Notes: []string{
			"both classes follow one phase-scripted per-port rate ladder whose last rung exceeds the service rate; met % counts successful completions at or under the class target (histogram-bucket granularity)",
			"per-phase rows difference cumulative SLO counters across prefix horizons of one deterministic run; completions are attributed to the phase they finish in, so a few boundary requests carry over",
			"the full-run summary aggregates the whole measured window, averaging the healthy phases with the collapsed ones",
		},
	}
}

// TrafficScenarios exposes the production traffic-model library as
// registry entries, mirroring Scenarios() for the specs in
// scenario.Traffic(). They register separately so the recorded
// scenario-overview sweep keeps its exact membership.
func TrafficScenarios() []Experiment {
	out := make([]Experiment, 0, 3)
	for _, spec := range scenario.Traffic() {
		out = append(out, specExperiment(spec, scenarioOptions))
	}
	return out
}
