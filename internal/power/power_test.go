package power

import (
	"testing"
	"testing/quick"
)

// Activities measured by the calibrated GUPS model for 128 B
// distributed access (see gups calibration): the power tests pin the
// couplings at these operating points.
var (
	roFull = Activity{RawGBps: 21.7, ReadMRPS: 135.7}
	woFull = Activity{RawGBps: 13.3, WriteMRPS: 83.3, PureWrite: true}
	rwFull = Activity{RawGBps: 24.0, ReadMRPS: 75, WriteMRPS: 75}
)

func TestDeviceDynamicOrdering(t *testing.T) {
	m := DefaultModel()
	ro := m.DeviceDynamicW(roFull)
	wo := m.DeviceDynamicW(woFull)
	rw := m.DeviceDynamicW(rwFull)
	// Write-significant workloads dissipate more than ro despite less
	// bandwidth, and wo exceeds rw (the paper's failure asymmetry).
	if !(wo > rw && rw > ro) {
		t.Fatalf("power ordering wo(%.2f) > rw(%.2f) > ro(%.2f) violated", wo, rw, ro)
	}
}

// TestFigure11bSlope: device power grows ~2 W from 5 to 20 GB/s of
// read bandwidth.
func TestFigure11bSlope(t *testing.T) {
	m := DefaultModel()
	at := func(gbps float64) float64 {
		scale := gbps / roFull.RawGBps
		return m.DeviceDynamicW(Activity{RawGBps: gbps, ReadMRPS: roFull.ReadMRPS * scale})
	}
	delta := at(20) - at(5)
	if delta < 1.0 || delta > 3.0 {
		t.Fatalf("5->20 GB/s device delta = %.2f W, want ~2", delta)
	}
}

func TestMachinePowerBand(t *testing.T) {
	m := DefaultModel()
	// Figure 10's y-axis spans 104-118 W; every full-load operating
	// point must fall inside it.
	for _, a := range []Activity{roFull, woFull, rwFull} {
		for _, temp := range []float64{50, 65, 75} {
			w := m.MachineW(a, temp, 45)
			if w < 104 || w > 118 {
				t.Fatalf("machine power %.1f W outside Figure 10 band for %+v @ %v C", w, a, temp)
			}
		}
	}
	// Idle machine is 100 W by definition.
	if m.MachineIdleW != 100 {
		t.Fatal("idle power not 100 W")
	}
}

func TestLeakageCoupling(t *testing.T) {
	m := DefaultModel()
	cold := m.MachineW(roFull, 45, 45)
	hot := m.MachineW(roFull, 75, 45)
	if hot <= cold {
		t.Fatal("hotter device must draw more power at the same bandwidth")
	}
	if m.LeakageW(40, 45) != 0 {
		t.Fatal("leakage below idle must be zero")
	}
}

func TestWriteOnlyPremium(t *testing.T) {
	m := DefaultModel()
	asMix := woFull
	asMix.PureWrite = false
	if m.DeviceDynamicW(woFull) <= m.DeviceDynamicW(asMix) {
		t.Fatal("pure-write premium not applied")
	}
}

// Property: dynamic power is monotone in each activity component.
func TestDynamicMonotoneProperty(t *testing.T) {
	m := DefaultModel()
	f := func(raw, rd, wr uint16, bump uint8) bool {
		a := Activity{RawGBps: float64(raw) / 100, ReadMRPS: float64(rd) / 10, WriteMRPS: float64(wr) / 10}
		base := m.DeviceDynamicW(a)
		d := float64(bump)/10 + 0.1
		up := a
		up.RawGBps += d
		if m.DeviceDynamicW(up) <= base {
			return false
		}
		up = a
		up.ReadMRPS += d
		if m.DeviceDynamicW(up) <= base {
			return false
		}
		up = a
		up.WriteMRPS += d
		return m.DeviceDynamicW(up) > base
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
