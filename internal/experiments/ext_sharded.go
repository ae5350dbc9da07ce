package experiments

import (
	"fmt"

	"hmcsim/internal/scenario"
)

// ShardedScenarios exposes the partitioned-system library (specs with
// Groups > 1, compiled across the PDES shard mesh) as registry
// entries, plus an overview that tabulates the whole family. These
// are the scale shapes the single-engine kernel could not reach; the
// Options.Shards knob picks how many goroutines drive each mesh
// without changing a byte of output.
func ShardedScenarios() []Experiment {
	out := []Experiment{
		{"sharded", "Sharded-system overview: every partitioned spec side by side", runShardedOverview},
	}
	for _, spec := range scenario.Sharded() {
		out = append(out, specExperiment(spec, shardedOptions))
	}
	return out
}

// shardedOptions is o.Options minus the thermal opt-in: the
// feedback loop is single-engine (scenario.Run rejects it on meshes),
// so the partitioned library runs open-loop even when the caller set
// Options.Thermal for the rest of the registry.
func shardedOptions(o Options) scenario.Options {
	so := o.Options
	so.Thermal, so.Cooling = false, ""
	return so
}

// runShardedOverview runs every partitioned spec and tabulates the
// headline numbers next to the partition shape. The specs run
// sequentially here — each one already owns the shard mesh's
// parallelism — so the cell pool is left to the callers that need it.
func runShardedOverview(o Options) (Report, error) {
	specs := scenario.Sharded()
	g := Grid{
		Title: "Partitioned-system library: aggregate traffic per spec",
		Cols:  []string{"Scenario", "Backend", "Groups", "Tenants", "Raw GB/s", "Data GB/s", "MRPS", "Read lat avg ns"},
	}
	for _, spec := range specs {
		res, err := scenario.Run(spec, shardedOptions(o))
		if err != nil {
			return Report{}, err
		}
		backend := spec.Backend
		if backend == "" {
			backend = "chain"
		}
		lat := "-"
		if h := res.Total.ReadHistNs; h.N() > 0 {
			lat = f0(h.Mean())
		}
		g.AddRow(spec.Name, backend, fmt.Sprintf("%d", spec.Groups),
			fmt.Sprintf("%d", len(spec.Tenants)),
			f2(res.Total.RawGBps), f2(res.Total.DataGBps), f1(res.Total.MRPS), lat)
	}
	return Report{
		ID: "sharded", Title: "Sharded-System Overview", Grids: []Grid{g},
		Notes: []string{
			"each spec's Groups field partitions the memory system across a PDES shard mesh (internal/sim.Mesh)",
			"Options.Shards picks worker goroutines per mesh; every value produces identical bytes",
		},
	}, nil
}
