// Package experiments contains one runnable reproduction per table
// and figure of the paper's evaluation (Section IV). Each experiment
// builds its workloads from the gups/workloads packages, runs them on
// the simulated AC-510 stack, post-processes with the thermal/power
// models where applicable, and renders the same rows/series the paper
// reports. EXPERIMENTS.md records the registry and how to drive it.
//
// Concurrency, cancellation and rendering live in internal/runner:
// every sweep fans its cells out through runner.Map, and every report
// is a runner.Report (aligned text, CSV and JSON sinks).
package experiments

import (
	"context"
	"fmt"

	"hmcsim/internal/runner"
	"hmcsim/internal/scenario"
	"hmcsim/internal/sim"
)

// Options tune experiment fidelity: longer measurement windows tighten
// bandwidth estimates at linear cost in wall time. The embedded
// scenario.Options carries the windows, the seed and the run overlays
// (shards, thermal, cooling, faults, traffic, SLO target): the
// paper's figures read only the windows and the seed, while the
// scenario-backed experiments (the scn-* library, the cross-backend
// matrix and the load-latency sweeps) pass it to scenario.Run as is.
// The families that script an overlay of their own replace it:
// ext-thermal-* always closes the loop, ext-fault-* always injects,
// ext-slo-* drops the traffic overlay, and the sharded library drops
// the thermal opt-in.
type Options struct {
	scenario.Options
	// Workers bounds concurrent independent simulations (0 = NumCPU).
	Workers int
	// Context cancels in-flight sweeps when done (nil = background).
	Context context.Context
	// Progress, when non-nil, is called after each simulation cell of
	// a sweep completes (serialized; may run on any worker).
	Progress func(done, total int)
}

// Default returns publication-fidelity options.
func Default() Options {
	return Options{Options: scenario.Options{Warmup: 150 * sim.Microsecond, Measure: 800 * sim.Microsecond, Seed: 1}}
}

// Quick returns fast options for tests and smoke runs.
func Quick() Options {
	return Options{Options: scenario.Options{Warmup: 30 * sim.Microsecond, Measure: 100 * sim.Microsecond, Seed: 1}}
}

func (o Options) context() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// parallelMap evaluates f(0..n-1) across the runner's worker pool,
// preserving index order in the returned slice. f must be safe to run
// concurrently with other indices (each cell owns its own engine).
// The first cell error, or cancellation of Options.Context, fails the
// whole map.
func parallelMap[T any](o Options, n int, f func(i int) (T, error)) ([]T, error) {
	cfg := runner.Config{Workers: o.Workers, Progress: o.Progress}
	return runner.Map(o.context(), cfg, n, func(_ context.Context, i int) (T, error) {
		return f(i)
	})
}

// Grid and Report are the runner's structured result shapes; the
// aliases keep every experiment and consumer in this package's
// namespace while the sinks (text/CSV/JSON) live with the pool.
type (
	Grid   = runner.Grid
	Report = runner.Report
)

// Experiment couples an ID to its runner for the cmd/figures driver.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (Report, error)
}

// All lists every reproduced table and figure in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Properties of HMC versions", func(Options) (Report, error) { return TableI(), nil }},
		{"table2", "HMC read/write request/response sizes", func(Options) (Report, error) { return TableII(), nil }},
		{"table3", "Experiment cooling configurations", func(Options) (Report, error) { return TableIII(), nil }},
		{"figure3", "Address mapping of 4 GB HMC 1.1", func(Options) (Report, error) { return Figure3(), nil }},
		{"figure6", "Bandwidth vs address-mask position", runReport(Figure6)},
		{"figure7", "Bandwidth for ro/rw/wo across access patterns", runReport(Figure7)},
		{"figure8", "Read bandwidth and MRPS vs request size", runReport(Figure8)},
		{"figure9", "Temperature and bandwidth across patterns/configs", runReport(Figure9)},
		{"figure10", "Average power across patterns/configs", runReport(Figure10)},
		{"figure11", "Temperature and power vs bandwidth (Cfg2 fits)", runReport(Figure11)},
		{"figure12", "Cooling power vs bandwidth (iso-temperature)", runReport(Figure12)},
		{"figure13", "Linear vs random bandwidth across request sizes", runReport(Figure13)},
		{"figure14", "TX/RX path latency deconstruction", runReport(Figure14)},
		{"figure15", "Low-load latency vs number of read requests", runReport(Figure15)},
		{"figure16", "High-load latency across patterns and sizes", runReport(Figure16)},
		{"figure17", "Latency vs request bandwidth (4- and 2-bank)", runReport(Figure17)},
		{"figure18", "Latency vs bandwidth, all patterns and sizes", runReport(Figure18)},
	}
}

// runReport adapts a typed experiment runner to the registry shape.
func runReport[T interface{ Report() Report }](f func(Options) (T, error)) func(Options) (Report, error) {
	return func(o Options) (Report, error) {
		d, err := f(o)
		if err != nil {
			return Report{}, err
		}
		return d.Report(), nil
	}
}

// ByID finds an experiment in the full registry, extensions included.
func ByID(id string) (Experiment, error) {
	for _, e := range AllWithExtensions() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown id %q", id)
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
