package thermal

import (
	"math"
	"testing"

	"hmcsim/internal/cooling"
	"hmcsim/internal/power"
)

var (
	roFull = power.Activity{RawGBps: 21.7, ReadMRPS: 135.7}
	woFull = power.Activity{RawGBps: 13.3, WriteMRPS: 83.3, PureWrite: true}
	rwFull = power.Activity{RawGBps: 24.0, ReadMRPS: 75, WriteMRPS: 75}
)

func cfg(t *testing.T, name string) cooling.Config {
	t.Helper()
	c, err := cooling.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestIdleTemperaturesMatchTableIII: the calibrated network reproduces
// the measured idle temperatures exactly.
func TestIdleTemperaturesMatchTableIII(t *testing.T) {
	m := DefaultModel()
	for _, c := range cooling.Configs() {
		got := m.IdleSurfaceC(c)
		if math.Abs(got-c.IdleHMCSurfaceC) > 0.05 {
			t.Errorf("%s idle = %.2f C, want %.1f", c.Name, got, c.IdleHMCSurfaceC)
		}
	}
}

// TestFailureMatrix reproduces Section IV-C's observed failures:
// read-only survives every configuration (reaching ~80 C at Cfg4);
// write-only fails at Cfg3 and Cfg4; read-modify-write fails only at
// Cfg4.
func TestFailureMatrix(t *testing.T) {
	m := DefaultModel()
	pm := power.DefaultModel()
	type tc struct {
		activity power.Activity
		writeSig bool
		fails    map[string]bool
	}
	cases := []tc{
		{roFull, false, map[string]bool{"Cfg1": false, "Cfg2": false, "Cfg3": false, "Cfg4": false}},
		{woFull, true, map[string]bool{"Cfg1": false, "Cfg2": false, "Cfg3": true, "Cfg4": true}},
		{rwFull, true, map[string]bool{"Cfg1": false, "Cfg2": false, "Cfg3": false, "Cfg4": true}},
	}
	for _, c := range cases {
		for name, wantFail := range c.fails {
			temp := m.SteadySurfaceC(cfg(t, name), pm, c.activity)
			if got := m.Exceeds(temp, c.writeSig); got != wantFail {
				t.Errorf("activity %+v at %s: %.1f C, fail=%v, want %v",
					c.activity, name, temp, got, wantFail)
			}
		}
	}
}

// TestReadOnlyReaches80AtCfg4: the paper's hottest surviving point.
func TestReadOnlyReaches80AtCfg4(t *testing.T) {
	m := DefaultModel()
	temp := m.SteadySurfaceC(cfg(t, "Cfg4"), power.DefaultModel(), roFull)
	if temp < 76 || temp > 84 {
		t.Fatalf("ro at Cfg4 = %.1f C, want ~80", temp)
	}
}

// TestFigure11aSlope: in Cfg2, raising read bandwidth from 5 to
// 20 GB/s warms the device ~3 C.
func TestFigure11aSlope(t *testing.T) {
	m := DefaultModel()
	pm := power.DefaultModel()
	c2 := cfg(t, "Cfg2")
	at := func(gbps float64) float64 {
		s := gbps / roFull.RawGBps
		return m.SteadySurfaceC(c2, pm, power.Activity{RawGBps: gbps, ReadMRPS: roFull.ReadMRPS * s})
	}
	delta := at(20) - at(5)
	if delta < 2 || delta > 5.5 {
		t.Fatalf("Cfg2 5->20 GB/s warming = %.2f C, want ~3-4", delta)
	}
}

// TestWriteSlopeSteeper: wo warms faster per GB/s than ro (Figure 11a).
func TestWriteSlopeSteeper(t *testing.T) {
	m := DefaultModel()
	pm := power.DefaultModel()
	c2 := cfg(t, "Cfg2")
	roRise := (m.SteadySurfaceC(c2, pm, roFull) - m.IdleSurfaceC(c2)) / roFull.RawGBps
	woRise := (m.SteadySurfaceC(c2, pm, woFull) - m.IdleSurfaceC(c2)) / woFull.RawGBps
	if woRise <= roRise {
		t.Fatalf("wo slope %.3f C/GBps not steeper than ro %.3f", woRise, roRise)
	}
}

func TestTransientSettles(t *testing.T) {
	m := DefaultModel()
	curve := m.Transient(43.1, 60, 200, 1)
	if len(curve) != 201 {
		t.Fatalf("curve length %d, want 201", len(curve))
	}
	if curve[0] != 43.1 {
		t.Fatalf("curve start %.1f", curve[0])
	}
	// Monotone approach toward steady state.
	for i := 1; i < len(curve); i++ {
		if curve[i] < curve[i-1] {
			t.Fatal("heating transient not monotone")
		}
	}
	if math.Abs(curve[200]-60) > 0.05 {
		t.Fatalf("after 200 s, %.2f C not settled at 60", curve[200])
	}
	// Still outside the thermal camera's +-0.1 C resolution at 5 s.
	if math.Abs(curve[5]-60) <= 0.1 {
		t.Fatalf("after only 5 s, %.2f C already settled at 60", curve[5])
	}
}

func TestTransientDegenerate(t *testing.T) {
	m := DefaultModel()
	if got := m.Transient(50, 60, -1, 1); len(got) != 1 || got[0] != 50 {
		t.Fatalf("negative duration handled wrong: %v", got)
	}
	if got := m.Transient(50, 60, 10, 0); len(got) != 1 {
		t.Fatalf("zero step handled wrong: %v", got)
	}
}

func TestJunctionOffset(t *testing.T) {
	m := DefaultModel()
	if j := m.JunctionC(70); j < 75 || j > 80 {
		t.Fatalf("junction estimate %.1f, want surface+5..10", j)
	}
}

func TestFailureThresholds(t *testing.T) {
	m := DefaultModel()
	if m.FailureThresholdC(false) != 85 || m.FailureThresholdC(true) != 75 {
		t.Fatal("thresholds drifted from the paper's 85/75")
	}
	if m.Exceeds(80, false) {
		t.Fatal("80 C read-only flagged")
	}
	if !m.Exceeds(80, true) {
		t.Fatal("80 C write-significant not flagged")
	}
}

func TestRequiredResistanceRoundTrip(t *testing.T) {
	m := DefaultModel()
	pm := power.DefaultModel()
	// Target the Cfg2 steady temperature; with the leakage fixed
	// point solved exactly, inversion reproduces Cfg2's resistance to
	// float precision.
	c2 := cfg(t, "Cfg2")
	target := m.SteadySurfaceC(c2, pm, roFull)
	r, err := m.RequiredResistance(target, pm, roFull)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-c2.SharedResistanceKPerW) > 1e-9 {
		t.Fatalf("required resistance %.6f, want %.6f", r, c2.SharedResistanceKPerW)
	}
}

// TestRequiredResistanceLeakageFixedPoint pins the dropped-leakage
// bug: the old code passed LeakageW(targetC, targetC) == 0, so the
// solved resistance ignored leakage entirely. At a hot target the
// implied leakage must be positive, and accounting for it must demand
// strictly better (lower-resistance) cooling than the leak-free
// inversion would.
func TestRequiredResistanceLeakageFixedPoint(t *testing.T) {
	m := DefaultModel()
	pm := power.DefaultModel()
	target := 70.0
	r, err := m.RequiredResistance(target, pm, roFull)
	if err != nil {
		t.Fatal(err)
	}
	// The configuration's idle point at the solved resistance.
	idle := m.AmbientC + r*(m.FPGAHeatW+m.HMCIdleW) + m.LocalRKPerW*m.HMCIdleW
	leak := pm.LeakageW(target, idle)
	if leak <= 0 {
		t.Fatalf("implied leakage %.4f W at %.0fC target, want > 0", leak, target)
	}
	// Leak-free inversion (the old, buggy result).
	noLeak := pm
	noLeak.LeakWPerK = 0
	rNoLeak, err := m.RequiredResistance(target, noLeak, roFull)
	if err != nil {
		t.Fatal(err)
	}
	if r >= rNoLeak {
		t.Fatalf("leakage-aware resistance %.4f not below leak-free %.4f", r, rNoLeak)
	}
	// Self-consistency: the solved resistance closes the network
	// equation with the leakage it implies.
	hmcW := m.HMCIdleW + pm.DeviceDynamicW(roFull) + leak
	back := m.AmbientC + r*(m.FPGAHeatW+hmcW) + m.LocalRKPerW*hmcW
	if math.Abs(back-target) > 1e-6 {
		t.Fatalf("network closure at solved resistance = %.4fC, want %.1fC", back, target)
	}
}

// TestTransientEndpointSampled pins the endpoint-sampling bug: when
// the duration is not an integer multiple of the step, the curve must
// still end with a sample at exactly t=totalSeconds (a 200 s run at
// 0.3 s steps used to stop at 199.8 s).
func TestTransientEndpointSampled(t *testing.T) {
	m := DefaultModel()
	start, steady := 43.1, 60.0
	curve := m.Transient(start, steady, 200, 0.3)
	// 0, 0.3, ..., 199.8 (667 samples) plus the clamped endpoint.
	if len(curve) != 668 {
		t.Fatalf("curve length %d, want 668", len(curve))
	}
	wantEnd := steady + (start-steady)*math.Exp(-200/m.TauSeconds)
	if got := curve[len(curve)-1]; math.Abs(got-wantEnd) > 1e-12 {
		t.Fatalf("final sample %.6f, want value at exactly t=200 (%.6f)", got, wantEnd)
	}
	// Integer-multiple durations keep their historical shape: one
	// sample per step including both endpoints.
	if got := m.Transient(start, steady, 200, 1); len(got) != 201 {
		t.Fatalf("integer-multiple curve length %d, want 201", len(got))
	}
	// Duration shorter than one step: t=0 plus the endpoint.
	short := m.Transient(start, steady, 0.1, 0.3)
	if len(short) != 2 || short[0] != start {
		t.Fatalf("sub-step curve %v, want [start, at(0.1)]", short)
	}
}

// TestSteadySurfaceRunawaySurfaced pins the runaway guard: a leakage
// slope strong enough to diverge must be reported (ok=false), not
// silently clamped into a bogus finite temperature.
func TestSteadySurfaceRunawaySurfaced(t *testing.T) {
	m := DefaultModel()
	pm := power.DefaultModel()
	c4 := cfg(t, "Cfg4")
	// Defaults are stable everywhere.
	if _, ok := m.SteadySurface(c4, pm, roFull); !ok {
		t.Fatal("default model reported runaway at Cfg4")
	}
	// mult = 2.080 + 1.0 = 3.08 K/W; LeakWPerK = 0.5 W/K makes the
	// loop gain 1.54 > 1: divergence.
	hot := pm
	hot.LeakWPerK = 0.5
	c, ok := m.SteadySurface(c4, hot, roFull)
	if ok {
		t.Fatal("diverging fixed point reported ok")
	}
	if math.IsInf(c, 0) || math.IsNaN(c) {
		t.Fatalf("runaway clamp not finite: %v", c)
	}
	// The legacy accessor still returns the clamped value.
	if got := m.SteadySurfaceC(c4, hot, roFull); got != c {
		t.Fatalf("SteadySurfaceC = %.2f, want clamp %.2f", got, c)
	}
}

func TestRequiredResistanceUnreachable(t *testing.T) {
	m := DefaultModel()
	if _, err := m.RequiredResistance(20, power.DefaultModel(), roFull); err == nil {
		t.Fatal("sub-ambient target accepted")
	}
}

// TestFigure12Coupling: holding a fixed temperature while bandwidth
// rises requires more cooling power; ~1.5 W per 16 GB/s on average.
func TestFigure12Coupling(t *testing.T) {
	m := DefaultModel()
	pm := power.DefaultModel()
	at := func(gbps float64) float64 {
		s := gbps / roFull.RawGBps
		a := power.Activity{RawGBps: gbps, ReadMRPS: roFull.ReadMRPS * s}
		w, err := m.CoolingPowerForTarget(60, pm, a)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	low, high := at(5), at(21)
	if high <= low {
		t.Fatalf("cooling power did not rise with bandwidth: %.2f -> %.2f", low, high)
	}
	delta := (high - low) * 16 / 16
	if delta < 0.5 || delta > 4 {
		t.Fatalf("cooling power delta over 16 GB/s = %.2f W, want ~1.5", delta)
	}
}
