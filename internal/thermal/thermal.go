// Package thermal models the heat path of the AC-510 module: FPGA and
// HMC share one heatsink (the HMC forms a distinguishable heat island)
// cooled by a configuration-dependent convective resistance. A lumped
// RC network gives steady-state and 200-second transient surface
// temperatures, reproduces the temperature-bandwidth coupling of
// Figure 9/11a, and detects the thermal failures of Section IV-C
// (~85 C for read-intensive, ~75 C for write-significant workloads,
// on the paper's reported surface-temperature scale).
package thermal

import (
	"fmt"
	"math"

	"hmcsim/internal/cooling"
	"hmcsim/internal/power"
)

// Model is the lumped thermal network plus failure thresholds.
type Model struct {
	// AmbientC is room temperature.
	AmbientC float64
	// LocalRKPerW is the HMC-private spreading resistance between its
	// junction region and the shared heatsink.
	LocalRKPerW float64
	// FPGAHeatW is the FPGA's constant heat into the shared sink.
	FPGAHeatW float64
	// HMCIdleW is the HMC's idle dissipation.
	HMCIdleW float64
	// TauSeconds is the dominant thermal time constant of the module;
	// the paper observes temperatures stabilize within 200 s.
	TauSeconds float64
	// JunctionOffsetC is how much hotter the in-package junction runs
	// than the camera-visible heatsink surface (5-10 C per the paper;
	// reported temperatures and thresholds are on the surface scale).
	JunctionOffsetC float64
	// ReadFailC / WriteFailC are the shutdown thresholds on the
	// surface scale for read-intensive and write-significant
	// workloads.
	ReadFailC  float64
	WriteFailC float64
}

// DefaultModel returns the calibrated module model.
func DefaultModel() Model {
	return Model{
		AmbientC:        25,
		LocalRKPerW:     1.0,
		FPGAHeatW:       15,
		HMCIdleW:        5,
		TauSeconds:      25,
		JunctionOffsetC: 7,
		ReadFailC:       85,
		WriteFailC:      75,
	}
}

// IdleSurfaceC is the idle HMC surface temperature under a cooling
// configuration; with the default calibration it reproduces Table III
// exactly: 25 + Rs*(15+5) + 1.0*5.
func (m Model) IdleSurfaceC(cfg cooling.Config) float64 {
	return m.AmbientC + cfg.SharedResistanceKPerW*(m.FPGAHeatW+m.HMCIdleW) + m.LocalRKPerW*m.HMCIdleW
}

// SteadySurface solves the steady-state surface temperature under a
// cooling configuration for a device activity profile, including the
// leakage-temperature fixed point (leakage heats, heat raises
// leakage). ok is false when the fixed point diverges — the leakage
// gain mult*LeakWPerK reaches 1 and the network has no finite steady
// state (thermal runaway); the returned temperature is then the
// runaway-guard clamp and must not be reported as a real operating
// point.
func (m Model) SteadySurface(cfg cooling.Config, pm power.Model, a power.Activity) (surfaceC float64, ok bool) {
	idle := m.IdleSurfaceC(cfg)
	dyn := pm.DeviceDynamicW(a)
	// T = idle + mult*(dyn + k*(T-idle))  =>  T-idle = mult*dyn/(1-mult*k)
	mult := cfg.SharedResistanceKPerW + m.LocalRKPerW
	denom := 1 - mult*pm.LeakWPerK
	ok = denom > 0.05
	if !ok {
		denom = 0.05 // thermal runaway guard; clamps the fixed point
	}
	return idle + mult*dyn/denom, ok
}

// SteadySurfaceC is SteadySurface without the runaway indicator; on
// runaway it returns the clamped guard value. Prefer SteadySurface
// where a bogus finite temperature could be mistaken for a real one.
func (m Model) SteadySurfaceC(cfg cooling.Config, pm power.Model, a power.Activity) float64 {
	c, _ := m.SteadySurface(cfg, pm, a)
	return c
}

// JunctionC converts a surface temperature to the in-package junction
// estimate.
func (m Model) JunctionC(surfaceC float64) float64 { return surfaceC + m.JunctionOffsetC }

// FailureThresholdC returns the applicable surface-scale shutdown
// threshold for a workload's write content.
func (m Model) FailureThresholdC(writeSignificant bool) float64 {
	if writeSignificant {
		return m.WriteFailC
	}
	return m.ReadFailC
}

// Exceeds reports whether a steady temperature trips the threshold.
func (m Model) Exceeds(surfaceC float64, writeSignificant bool) bool {
	return surfaceC > m.FailureThresholdC(writeSignificant)
}

// Transient integrates the first-order response from a starting
// surface temperature toward the steady-state target, sampling every
// stepSeconds for totalSeconds. It returns the sampled curve,
// including t=0 and a final sample at exactly t=totalSeconds — when
// the duration is not an integer multiple of the step, the endpoint
// is still sampled (a 200 s run at 0.3 s steps ends at 200 s, not
// 199.8 s), so the curve always reports the settled temperature the
// paper's 200 s runs read off.
func (m Model) Transient(startC, steadyC, totalSeconds, stepSeconds float64) []float64 {
	if stepSeconds <= 0 || totalSeconds < 0 {
		return []float64{startC}
	}
	at := func(t float64) float64 {
		return steadyC + (startC-steadyC)*math.Exp(-t/m.TauSeconds)
	}
	out := make([]float64, 0, int(totalSeconds/stepSeconds)+2)
	// i*step (not an accumulator) keeps sample times exact under
	// floating-point; the loop stops strictly before the endpoint,
	// which is appended exactly once below.
	for i := 0; float64(i)*stepSeconds < totalSeconds; i++ {
		out = append(out, at(float64(i)*stepSeconds))
	}
	return append(out, at(totalSeconds))
}

// RequiredResistance inverts the network: the shared resistance that
// would hold the surface at targetC for the given activity. It
// returns an error if the target is below the floor achievable with
// zero shared resistance.
//
// The leakage reference is the configuration's own idle temperature,
// which depends on the resistance being solved for — so the
// (resistance, idle, leakage) fixed point is iterated rather than
// approximated. The leakage gain is small (LeakWPerK times a few
// K/W), so the iteration converges geometrically; the result is
// exactly consistent with SteadySurface: plugging the returned
// resistance back into the network reproduces targetC.
func (m Model) RequiredResistance(targetC float64, pm power.Model, a power.Activity) (float64, error) {
	dyn := pm.DeviceDynamicW(a)
	leak, r := 0.0, 0.0
	for i := 0; i < 64; i++ {
		hmcW := m.HMCIdleW + dyn + leak
		floor := m.AmbientC + m.LocalRKPerW*hmcW
		if targetC <= floor {
			return 0, fmt.Errorf("thermal: target %.1fC unreachable (floor %.1fC at zero resistance)", targetC, floor)
		}
		next := (targetC - floor) / (m.FPGAHeatW + hmcW)
		idle := m.AmbientC + next*(m.FPGAHeatW+m.HMCIdleW) + m.LocalRKPerW*m.HMCIdleW
		leak = pm.LeakageW(targetC, idle)
		if math.Abs(next-r) < 1e-12 {
			return next, nil
		}
		r = next
	}
	return r, nil
}

// CoolingPowerForTarget composes RequiredResistance with the Table III
// resistance->power interpolation: the cooling power needed to hold
// targetC at the given activity (the y-axis of Figure 12).
func (m Model) CoolingPowerForTarget(targetC float64, pm power.Model, a power.Activity) (float64, error) {
	r, err := m.RequiredResistance(targetC, pm, a)
	if err != nil {
		return 0, err
	}
	return cooling.PowerForResistance(r), nil
}
