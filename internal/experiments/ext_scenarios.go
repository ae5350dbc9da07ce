package experiments

import (
	"fmt"

	"hmcsim/internal/scenario"
)

// Scenarios exposes the declarative workload library as registry
// entries: one experiment per builtin spec (id "scn-<name>") plus an
// overview sweep that runs every spec and tabulates the headline
// numbers side by side.
func Scenarios() []Experiment {
	out := []Experiment{
		{"scenarios", "Scenario overview: every builtin spec side by side", runScenarioOverview},
	}
	for _, spec := range scenario.Builtin() {
		out = append(out, specExperiment(spec, scenarioOptions))
	}
	return out
}

// specExperiment registers one spec as experiment "scn-<name>": a run
// is scenario.Run under the scenario options opts derives from the
// registry's.
func specExperiment(spec scenario.Spec, opts func(Options) scenario.Options) Experiment {
	return Experiment{
		ID:    "scn-" + spec.Name,
		Title: "Scenario: " + spec.Description,
		Run: func(o Options) (Report, error) {
			res, err := scenario.Run(spec, opts(o))
			if err != nil {
				return Report{}, err
			}
			return res.Report(), nil
		},
	}
}

// scenarioOptions passes the registry's scenario options through
// unchanged.
func scenarioOptions(o Options) scenario.Options { return o.Options }

// runScenarioOverview fans every builtin scenario out across the
// worker pool and tabulates totals.
func runScenarioOverview(o Options) (Report, error) {
	specs := scenario.Builtin()
	results, err := parallelMap(o, len(specs), func(i int) (scenario.Result, error) {
		return scenario.Run(specs[i], o.Options)
	})
	if err != nil {
		return Report{}, err
	}
	g := Grid{
		Title: "Builtin scenario library: aggregate traffic per spec",
		Cols:  []string{"Scenario", "Topology", "Tenants", "Raw GB/s", "Data GB/s", "MRPS", "Read lat avg ns"},
	}
	for i, res := range results {
		topo := specs[i].Topology
		if topo == "" {
			topo = "single"
		}
		lat := "-"
		if h := res.Total.ReadHistNs; h.N() > 0 {
			lat = f0(h.Mean())
		}
		g.AddRow(specs[i].Name, topo, fmt.Sprintf("%d", len(specs[i].Tenants)),
			f2(res.Total.RawGBps), f2(res.Total.DataGBps), f1(res.Total.MRPS), lat)
	}
	return Report{
		ID: "scenarios", Title: "Scenario Overview", Grids: []Grid{g},
		Notes: []string{"declarative workload scenarios compiled onto the simulated stack; see internal/scenario"},
	}, nil
}
