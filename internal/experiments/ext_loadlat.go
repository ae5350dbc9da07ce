package experiments

import (
	"fmt"

	"hmcsim/internal/scenario"
)

// LoadLatency exposes the load-latency characterization family: for
// each backend, an open-loop injection-rate sweep from deep
// unsaturation to past saturation, reporting achieved throughput and
// the read-latency distribution (mean and tail percentiles) at every
// offered load. This is the paper's central characterization shape —
// low-load round trips at the bottom of the ladder, queueing
// inflation as the offered rate approaches the service rate — applied
// uniformly to all three memory systems.
func LoadLatency() []Experiment {
	out := make([]Experiment, 0, len(loadLatConfigs))
	for _, c := range loadLatConfigs {
		out = append(out, Experiment{
			ID:    "ext-loadlat-" + c.backend,
			Title: fmt.Sprintf("Load-latency sweep: open-loop rate vs tail latency (%s)", c.label),
			Run: runReport(func(o Options) (*ExtLoadLatData, error) {
				return ExtLoadLat(o, c)
			}),
		})
	}
	return out
}

// loadLatConfig pins one backend's sweep: the injector width and the
// per-port rate ladder, chosen so the top rungs exceed the backend's
// closed-loop service rate (the sweep must cross saturation for the
// queueing knee to appear).
type loadLatConfig struct {
	backend string
	label   string
	ports   int
	// perPortMRPS is the offered open-loop arrival rate ladder, per
	// port, in million requests per second.
	perPortMRPS []float64
}

var loadLatConfigs = []loadLatConfig{
	// One cube behind the AC-510: 9 GUPS ports saturate near 136 MRPS
	// at 128 B, so 9 x 16 = 144 MRPS offered tops out past the knee.
	{"hmc", "1 cube, 9 ports", 9, []float64{0.25, 0.5, 1, 2, 4, 8, 12, 14, 16}},
	// One DDR4-2400 channel saturates near 150 MRPS at 128 B under
	// the deep per-channel window; 4 x 40 = 160 MRPS crosses it.
	{"ddr4", "1 channel, 4 ports", 4, []float64{1, 2, 4, 8, 16, 24, 32, 40}},
	// A 4-cube chain serves ~68 MRPS at 128 B; 4 x 20 = 80 offered.
	{"chain", "4 cubes, 4 ports", 4, []float64{0.25, 0.5, 1, 2, 4, 8, 16, 18, 20}},
}

// loadLatPoint is one measured cell of the sweep.
type loadLatPoint struct {
	OfferedMRPS  float64 // requested aggregate rate
	RealizedMRPS float64 // aggregate rate the rounded pacing interval realizes
	AchievedMRPS float64 // completed requests per second
	RawGBps      float64
	Samples      uint64 // measured read completions
	MeanNs       float64
	P50, P90     float64
	P99, P999    float64
}

// ExtLoadLatData holds one backend's load-latency curve.
type ExtLoadLatData struct {
	Config loadLatConfig
	Points []loadLatPoint
}

// loadLatSpec compiles one sweep cell: uniform 128 B reads injected
// open-loop at the given per-port rate on the target backend.
func loadLatSpec(c loadLatConfig, perPortMRPS float64) scenario.Spec {
	return scenario.Spec{
		Name:        fmt.Sprintf("ll-%s-%g", c.backend, perPortMRPS),
		Description: "load-latency sweep cell",
		Backend:     c.backend,
		Tenants: []scenario.Tenant{{
			Name:   "probe",
			Ports:  c.ports,
			Size:   128,
			Inject: scenario.Injection{Mode: "open", RateMRPS: perPortMRPS},
		}},
	}
}

// ExtLoadLat runs one backend's sweep, fanning the rate ladder across
// the worker pool. Every cell owns its own engine and derives all
// randomness from (seed, tenant index), so the curve is deterministic
// in the worker count.
func ExtLoadLat(o Options, c loadLatConfig) (*ExtLoadLatData, error) {
	d := &ExtLoadLatData{Config: c}
	pts, err := parallelMap(o, len(c.perPortMRPS), func(i int) (loadLatPoint, error) {
		rate := c.perPortMRPS[i]
		res, err := scenario.Run(loadLatSpec(c, rate), o.Options)
		if err != nil {
			return loadLatPoint{}, err
		}
		p := loadLatPoint{
			OfferedMRPS:  rate * float64(c.ports),
			RealizedMRPS: res.Total.OfferedMRPS,
			AchievedMRPS: res.Total.MRPS,
			RawGBps:      res.Total.RawGBps,
			MeanNs:       res.Total.ReadHistNs.Mean(),
		}
		if h := res.Total.ReadHistNs; h.N() > 0 {
			p.Samples = h.N()
			q := h.Percentiles(50, 90, 99, 99.9)
			p.P50, p.P90, p.P99, p.P999 = q[0], q[1], q[2], q[3]
		}
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	d.Points = pts
	return d, nil
}

// Report renders the curve: offered load down the rows, achieved
// throughput and the latency distribution across.
func (d *ExtLoadLatData) Report() Report {
	g := Grid{
		Title: fmt.Sprintf("Open-loop load vs read latency, uniform 128 B reads, %s", d.Config.label),
		Cols: []string{"Offered MRPS", "Realized MRPS", "Achieved MRPS", "Raw GB/s",
			"n", "Mean ns", "p50 ns", "p90 ns", "p99 ns", "p99.9 ns"},
	}
	for _, p := range d.Points {
		n, mean, p50, p90, p99, p999 := "-", "-", "-", "-", "-", "-"
		if p.Samples > 0 {
			n = fmt.Sprintf("%d", p.Samples)
			mean, p50, p90 = f0(p.MeanNs), f0(p.P50), f0(p.P90)
			p99, p999 = f0(p.P99), f0(p.P999)
		}
		g.AddRow(f1(p.OfferedMRPS), f2(p.RealizedMRPS), f1(p.AchievedMRPS), f2(p.RawGBps),
			n, mean, p50, p90, p99, p999)
	}
	return Report{
		ID:    "ext-loadlat-" + d.Config.backend,
		Title: fmt.Sprintf("Load-Latency Characterization (%s)", d.Config.backend),
		Grids: []Grid{g},
		Notes: []string{
			"offered = requested open-loop injection rate, realized = the rate the kernel's rounded 1 ps pacing interval actually paces, achieved = completed requests; past the knee the injectors are admission-limited and latency reflects full queues",
			"percentiles from log-bucketed histograms (<=1.6% relative error above 31 ns); mean is exact; warmup completions excluded",
		},
	}
}
