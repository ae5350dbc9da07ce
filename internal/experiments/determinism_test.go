package experiments

import (
	"testing"

	"hmcsim/internal/scenario"
	"hmcsim/internal/sim"
)

// fastOpts keeps the determinism runs cheap: the property under test
// is workers-independence, not measurement fidelity.
func fastOpts(workers int) Options {
	return Options{
		Options: scenario.Options{Warmup: 10 * sim.Microsecond, Measure: 30 * sim.Microsecond, Seed: 7},
		Workers: workers,
	}
}

// Identical seeds must yield byte-identical experiment output
// regardless of worker count: results are keyed by cell index and all
// randomness derives from (seed, cell), never from scheduling order.
// Nor may the pooled engine storage matter: a ddr4 and a chain
// experiment run first, so the hmc cells adopt wheels with foreign
// geometry and capacities, in whatever order the workers draw them.
func TestWorkerCountDoesNotChangeOutput(t *testing.T) {
	for _, warm := range []func(Options) (Report, error){runReport(ExtDDR), runReport(ExtChain)} {
		if _, err := warm(fastOpts(8)); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		id  string
		run func(Options) (Report, error)
	}{
		{"figure7", runReport(Figure7)},
		{"figure8", runReport(Figure8)},
	}
	for _, c := range cases {
		t.Run(c.id, func(t *testing.T) {
			serial, err := c.run(fastOpts(1))
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := c.run(fastOpts(8))
			if err != nil {
				t.Fatal(err)
			}
			if serial.Table() != parallel.Table() {
				t.Errorf("%s: aligned-text output differs between Workers=1 and Workers=8", c.id)
			}
			if serial.CSV() != parallel.CSV() {
				t.Errorf("%s: CSV output differs between Workers=1 and Workers=8", c.id)
			}
			js, err := serial.JSON()
			if err != nil {
				t.Fatal(err)
			}
			jp, err := parallel.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if js != jp {
				t.Errorf("%s: JSON output differs between Workers=1 and Workers=8", c.id)
			}
		})
	}
}

// Different seeds must actually change the measurement (guards against
// a seed that is silently ignored, which would make the determinism
// test above vacuous).
func TestSeedChangesOutput(t *testing.T) {
	a := fastOpts(0)
	b := fastOpts(0)
	b.Seed = a.Seed + 1
	ra, err := runReport(Figure7)(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := runReport(Figure7)(b)
	if err != nil {
		t.Fatal(err)
	}
	if ra.CSV() == rb.CSV() {
		t.Error("figure7 output identical across different seeds")
	}
}

// TestScenarioWorkerDeterminism: the scenario overview fans every
// builtin spec across the pool; its rendered output must be
// byte-identical between Workers=1 and Workers=8, and a repeated run
// must replay exactly (seeded zipfian/hotspot generators included).
func TestScenarioWorkerDeterminism(t *testing.T) {
	serial, err := runScenarioOverview(fastOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := runScenarioOverview(fastOpts(8))
	if err != nil {
		t.Fatal(err)
	}
	if serial.Table() != parallel.Table() {
		t.Error("scenario overview text differs between Workers=1 and Workers=8")
	}
	if serial.CSV() != parallel.CSV() {
		t.Error("scenario overview CSV differs between Workers=1 and Workers=8")
	}
	replay, err := runScenarioOverview(fastOpts(8))
	if err != nil {
		t.Fatal(err)
	}
	if parallel.Table() != replay.Table() {
		t.Error("scenario overview not reproducible across runs at Workers=8")
	}
}

// TestLoadLatWorkerDeterminism: every load-latency sweep fans its
// rate ladder across the pool (open-loop injectors on all three
// backends); the rendered curve must be byte-identical between
// Workers=1 and Workers=8 and across repeated runs, or the recorded
// goldens would be racy.
func TestLoadLatWorkerDeterminism(t *testing.T) {
	for _, e := range LoadLatency() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			serial, err := e.Run(fastOpts(1))
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := e.Run(fastOpts(8))
			if err != nil {
				t.Fatal(err)
			}
			if serial.Table() != parallel.Table() {
				t.Errorf("%s text differs between Workers=1 and Workers=8", e.ID)
			}
			if serial.CSV() != parallel.CSV() {
				t.Errorf("%s CSV differs between Workers=1 and Workers=8", e.ID)
			}
			replay, err := e.Run(fastOpts(8))
			if err != nil {
				t.Fatal(err)
			}
			if parallel.Table() != replay.Table() {
				t.Errorf("%s not reproducible across runs at Workers=8", e.ID)
			}
		})
	}
}

// TestShardWorkerDeterminism: every partitioned spec's experiment must
// render byte-identically whether its PDES mesh runs on one goroutine
// or as many as there are shards — the partition is part of the spec;
// Options.Shards only schedules it.
func TestShardWorkerDeterminism(t *testing.T) {
	for _, e := range ShardedScenarios() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			serial, err := e.Run(fastOpts(1))
			if err != nil {
				t.Fatal(err)
			}
			o := fastOpts(1)
			o.Shards = 8
			sharded, err := e.Run(o)
			if err != nil {
				t.Fatal(err)
			}
			if serial.Table() != sharded.Table() {
				t.Errorf("%s text differs between Shards=1 and Shards=8", e.ID)
			}
			if serial.CSV() != sharded.CSV() {
				t.Errorf("%s CSV differs between Shards=1 and Shards=8", e.ID)
			}
			replay, err := e.Run(o)
			if err != nil {
				t.Fatal(err)
			}
			if sharded.Table() != replay.Table() {
				t.Errorf("%s not reproducible across runs at Shards=8", e.ID)
			}
		})
	}
}

// TestThermalWorkerDeterminism: the thermal feedback family fans its
// (cooling x rate) cells — each a closed loop of throttle decorator,
// RC runtime and drivers — across the pool; sweep, placement and the
// controller telemetry inside them must render byte-identically
// between Workers=1 and Workers=8 and across repeated runs.
func TestThermalWorkerDeterminism(t *testing.T) {
	for _, e := range Thermal() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			serial, err := e.Run(fastOpts(1))
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := e.Run(fastOpts(8))
			if err != nil {
				t.Fatal(err)
			}
			if serial.Table() != parallel.Table() {
				t.Errorf("%s text differs between Workers=1 and Workers=8", e.ID)
			}
			if serial.CSV() != parallel.CSV() {
				t.Errorf("%s CSV differs between Workers=1 and Workers=8", e.ID)
			}
			replay, err := e.Run(fastOpts(8))
			if err != nil {
				t.Fatal(err)
			}
			if parallel.Table() != replay.Table() {
				t.Errorf("%s not reproducible across runs at Workers=8", e.ID)
			}
		})
	}
}

// TestBackendMatrixWorkerDeterminism: the cross-backend matrix fans
// (shape x backend) cells — including chain cells whose cubes fail
// and reroute in other tests — across the pool; its output must be
// byte-identical between Workers=1 and Workers=8 and across repeated
// runs.
func TestBackendMatrixWorkerDeterminism(t *testing.T) {
	serial, err := runReport(ExtBackends)(fastOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := runReport(ExtBackends)(fastOpts(8))
	if err != nil {
		t.Fatal(err)
	}
	if serial.Table() != parallel.Table() {
		t.Error("backend matrix text differs between Workers=1 and Workers=8")
	}
	if serial.CSV() != parallel.CSV() {
		t.Error("backend matrix CSV differs between Workers=1 and Workers=8")
	}
	replay, err := runReport(ExtBackends)(fastOpts(8))
	if err != nil {
		t.Fatal(err)
	}
	if parallel.Table() != replay.Table() {
		t.Error("backend matrix not reproducible across runs at Workers=8")
	}
}

// TestTrafficWorkerDeterminism: the traffic-model scenarios (MMPP
// bursts, diurnal phase curves, tenant churn) derive every dwell and
// arrival instant from (seed, tenant index); each must render
// byte-identically between Workers=1 and Workers=8 and replay exactly
// across runs, or the burst timelines would be racy.
func TestTrafficWorkerDeterminism(t *testing.T) {
	for _, e := range TrafficScenarios() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			serial, err := e.Run(fastOpts(1))
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := e.Run(fastOpts(8))
			if err != nil {
				t.Fatal(err)
			}
			if serial.Table() != parallel.Table() {
				t.Errorf("%s text differs between Workers=1 and Workers=8", e.ID)
			}
			if serial.CSV() != parallel.CSV() {
				t.Errorf("%s CSV differs between Workers=1 and Workers=8", e.ID)
			}
			replay, err := e.Run(fastOpts(8))
			if err != nil {
				t.Fatal(err)
			}
			if parallel.Table() != replay.Table() {
				t.Errorf("%s not reproducible across runs at Workers=8", e.ID)
			}
		})
	}
}

// TestSLOWorkerDeterminism: the SLO family fans its prefix-horizon
// slices across the pool and differences cumulative counters between
// them; the per-phase grid and class summary must render
// byte-identically between Workers=1 and Workers=8 and across
// repeated runs on every backend.
func TestSLOWorkerDeterminism(t *testing.T) {
	for _, e := range SLO() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			serial, err := e.Run(fastOpts(1))
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := e.Run(fastOpts(8))
			if err != nil {
				t.Fatal(err)
			}
			if serial.Table() != parallel.Table() {
				t.Errorf("%s text differs between Workers=1 and Workers=8", e.ID)
			}
			if serial.CSV() != parallel.CSV() {
				t.Errorf("%s CSV differs between Workers=1 and Workers=8", e.ID)
			}
			replay, err := e.Run(fastOpts(8))
			if err != nil {
				t.Fatal(err)
			}
			if parallel.Table() != replay.Table() {
				t.Errorf("%s not reproducible across runs at Workers=8", e.ID)
			}
		})
	}
}

// TestFaultWorkerDeterminism: the fault family fans its ladder rungs,
// timeline horizons and topology pair across the pool; injector
// randomness is keyed by (seed, zone), never scheduling order, so
// every grid — including the prefix-horizon outage slices — must
// render byte-identically between Workers=1 and Workers=8 and across
// repeated runs.
func TestFaultWorkerDeterminism(t *testing.T) {
	for _, e := range Faults() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			serial, err := e.Run(fastOpts(1))
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := e.Run(fastOpts(8))
			if err != nil {
				t.Fatal(err)
			}
			if serial.Table() != parallel.Table() {
				t.Errorf("%s text differs between Workers=1 and Workers=8", e.ID)
			}
			if serial.CSV() != parallel.CSV() {
				t.Errorf("%s CSV differs between Workers=1 and Workers=8", e.ID)
			}
			replay, err := e.Run(fastOpts(8))
			if err != nil {
				t.Fatal(err)
			}
			if parallel.Table() != replay.Table() {
				t.Errorf("%s not reproducible across runs at Workers=8", e.ID)
			}
		})
	}
}
