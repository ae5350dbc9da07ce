// Package core is the top-level API of hmcsim: the characterization
// methodology that is the paper's primary contribution, packaged for
// reuse. It exposes (1) a one-call Measure for custom workloads that
// couples the performance, thermal and power models the way the
// paper's experimental rig coupled its FPGA, thermal camera and power
// analyzer, and (2) the paper's concluding design insights as data.
// The table/figure registry lives in internal/experiments.
package core

import (
	"fmt"

	"hmcsim/internal/cooling"
	"hmcsim/internal/experiments"
	"hmcsim/internal/gups"
	"hmcsim/internal/power"
	"hmcsim/internal/stats"
	"hmcsim/internal/thermal"
	"hmcsim/internal/workloads"
)

// Characterizer orchestrates experiments against the simulated
// AC-510 + HMC 1.1 stack.
type Characterizer struct {
	opts    experiments.Options
	thermal thermal.Model
	power   power.Model
}

// New builds a characterizer with the given experiment options (use
// experiments.Default() or experiments.Quick()).
func New(opts experiments.Options) *Characterizer {
	return &Characterizer{
		opts:    opts,
		thermal: thermal.DefaultModel(),
		power:   power.DefaultModel(),
	}
}

// Workload describes a custom measurement target.
type Workload struct {
	// Type is the request mix: gups.ReadOnly, WriteOnly or
	// ReadModifyWrite.
	Type gups.ReqType
	// Size is the request payload (16..128 B, multiples of 16).
	Size int
	// Pattern restricts the footprint; zero value means the full
	// device (use workloads.VaultPattern / BankPattern to build).
	Pattern workloads.Pattern
	// Mode selects random (default) or linear addressing.
	Mode gups.Mode
	// Ports sets GUPS concurrency (0 = all nine).
	Ports int
}

// Validate checks the workload.
func (w Workload) Validate() error {
	if w.Size != 0 && (w.Size < 16 || w.Size > 128 || w.Size%16 != 0) {
		return fmt.Errorf("core: invalid request size %d", w.Size)
	}
	if w.Ports < 0 || w.Ports > 9 {
		return fmt.Errorf("core: ports %d out of range 0..9", w.Ports)
	}
	return nil
}

// ThermalPoint is the thermal/power assessment of a workload under
// one cooling configuration.
type ThermalPoint struct {
	Config          cooling.Config
	SurfaceC        float64
	JunctionC       float64
	MachineW        float64
	CoolingW        float64
	ThermallyFailed bool
}

// Measurement is the full characterization of one workload.
type Measurement struct {
	Workload Workload
	// Perf is the GUPS measurement (bandwidth, MRPS, latency).
	Perf gups.Result
	// Activity is the derived power-model input.
	Activity power.Activity
	// Thermal holds one point per cooling configuration.
	Thermal []ThermalPoint
}

// ReadLatency is shorthand for the read-latency record (ns): exact
// mean/min/max and tail percentiles; nil when no reads completed in
// the window.
func (m Measurement) ReadLatency() *stats.LogHist { return m.Perf.ReadHistNs }

// WriteLatency is the write-side record (nil when no writes completed
// in the window).
func (m Measurement) WriteLatency() *stats.LogHist { return m.Perf.WriteHistNs }

// SafeConfigs lists cooling configurations that hold the workload
// below its thermal failure threshold.
func (m Measurement) SafeConfigs() []string {
	var out []string
	for _, t := range m.Thermal {
		if !t.ThermallyFailed {
			out = append(out, t.Config.Name)
		}
	}
	return out
}

// Measure runs a workload on the simulated stack and assesses it
// under all four cooling configurations.
func (c *Characterizer) Measure(w Workload) (Measurement, error) {
	if err := w.Validate(); err != nil {
		return Measurement{}, err
	}
	size := w.Size
	if size == 0 {
		size = 128
	}
	res, err := gups.Run(gups.Config{
		Type:     w.Type,
		Size:     size,
		Mode:     w.Mode,
		ZeroMask: w.Pattern.ZeroMask,
		Ports:    w.Ports,
		Warmup:   c.opts.Warmup,
		Measure:  c.opts.Measure,
		Seed:     c.opts.Seed,
	})
	if err != nil {
		return Measurement{}, err
	}
	m := Measurement{
		Workload: w,
		Perf:     res,
		Activity: power.Activity{
			RawGBps:   res.RawGBps,
			ReadMRPS:  res.ReadMRPS,
			WriteMRPS: res.WriteMRPS,
			PureWrite: w.Type == gups.WriteOnly,
		},
	}
	writeSig := w.Type != gups.ReadOnly
	for _, cfg := range cooling.Configs() {
		surface := c.thermal.SteadySurfaceC(cfg, c.power, m.Activity)
		m.Thermal = append(m.Thermal, ThermalPoint{
			Config:          cfg,
			SurfaceC:        surface,
			JunctionC:       c.thermal.JunctionC(surface),
			MachineW:        c.power.MachineW(m.Activity, surface, c.thermal.IdleSurfaceC(cfg)),
			CoolingW:        cfg.CoolingPowerW,
			ThermallyFailed: c.thermal.Exceeds(surface, writeSig),
		})
	}
	return m, nil
}

// MeasureStream runs a low-load stream burst (the paper's stream
// GUPS) and returns the latency summary.
func (c *Characterizer) MeasureStream(n, size int, verify bool) (gups.StreamResult, error) {
	return gups.RunStream(gups.StreamConfig{N: n, Size: size, Seed: c.opts.Seed, Verify: verify})
}

// Insight is one of the paper's concluding design insights
// (Section VI), paired with the experiment that demonstrates it.
type Insight struct {
	N          int
	Text       string
	Experiment string
}

// Insights returns the paper's six conclusions.
func Insights() []Insight {
	return []Insight{
		{1, "To efficiently utilize bi-directional bandwidth, accesses should have large sizes and use a mix of reads and writes.", "figure7"},
		{2, "To avoid structural bottlenecks and exploit bank-level parallelism, accesses should be distributed and the request rate controlled from any level of abstraction.", "figure16"},
		{3, "Spatial locality does not improve performance under the closed-page policy; do not add complexity to chase it.", "figure13"},
		{4, "To benefit from packet-switched scalability, a low-latency host-side infrastructure is crucial.", "figure14"},
		{5, "Temperature-sensitive operation requires fault-tolerant mechanisms (thermal shutdown loses DRAM contents).", "figure9"},
		{6, "High bandwidth requires optimized low-power mechanisms together with proper cooling.", "figure12"},
	}
}
