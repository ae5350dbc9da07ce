package cooling

import (
	"math"
	"testing"
)

// TestTableIII pins the paper's cooling-configuration table.
func TestTableIII(t *testing.T) {
	cfgs := Configs()
	if len(cfgs) != 4 {
		t.Fatalf("%d configs, want 4", len(cfgs))
	}
	want := []struct {
		name     string
		volts    float64
		amps     float64
		distance float64
		idleC    float64
		coolW    float64
	}{
		{"Cfg1", 12.0, 0.36, 45, 43.1, 19.32},
		{"Cfg2", 10.0, 0.29, 90, 51.7, 15.90},
		{"Cfg3", 6.5, 0.14, 90, 62.3, 13.90},
		{"Cfg4", 6.0, 0.13, 135, 71.6, 10.78},
	}
	for i, w := range want {
		c := cfgs[i]
		if c.Name != w.name || c.FanVoltage != w.volts || c.FanCurrent != w.amps ||
			c.ExternalFanDistanceCm != w.distance || c.IdleHMCSurfaceC != w.idleC ||
			c.CoolingPowerW != w.coolW {
			t.Errorf("config %d = %+v, want %+v", i, c, w)
		}
	}
}

func TestConfigOrderings(t *testing.T) {
	cfgs := Configs()
	for i := 1; i < len(cfgs); i++ {
		if cfgs[i].IdleHMCSurfaceC <= cfgs[i-1].IdleHMCSurfaceC {
			t.Error("idle temperature not increasing Cfg1->Cfg4")
		}
		if cfgs[i].CoolingPowerW >= cfgs[i-1].CoolingPowerW {
			t.Error("cooling power not decreasing Cfg1->Cfg4")
		}
		if cfgs[i].SharedResistanceKPerW <= cfgs[i-1].SharedResistanceKPerW {
			t.Error("thermal resistance not increasing Cfg1->Cfg4")
		}
	}
}

func TestByName(t *testing.T) {
	c, err := ByName("Cfg3")
	if err != nil || c.IdleHMCSurfaceC != 62.3 {
		t.Fatalf("ByName(Cfg3) = %+v, %v", c, err)
	}
	if _, err := ByName("Cfg9"); err == nil {
		t.Fatal("unknown config accepted")
	}
}

func TestPowerForResistanceAnchors(t *testing.T) {
	for _, c := range Configs() {
		got := PowerForResistance(c.SharedResistanceKPerW)
		if math.Abs(got-c.CoolingPowerW) > 1e-9 {
			t.Errorf("%s: interpolation at anchor = %.3f, want %.3f", c.Name, got, c.CoolingPowerW)
		}
	}
}

func TestPowerForResistanceMonotone(t *testing.T) {
	prev := math.Inf(1)
	for r := 0.3; r < 2.6; r += 0.05 {
		p := PowerForResistance(r)
		if p > prev {
			t.Fatalf("cooling power not monotone decreasing at r=%.2f", r)
		}
		prev = p
	}
}

func TestPowerForResistanceExtrapolation(t *testing.T) {
	// Better-than-Cfg1 cooling must cost more than Cfg1.
	if PowerForResistance(0.4) <= 19.32 {
		t.Fatal("extrapolation below Cfg1 not more expensive")
	}
	// Worse-than-Cfg4 cooling must cost less than Cfg4.
	if PowerForResistance(2.5) >= 10.78 {
		t.Fatal("extrapolation beyond Cfg4 not cheaper")
	}
}

// TestPowerForResistanceNonNegative pins the extrapolation clamp:
// large resistances used to extrapolate the Cfg3->Cfg4 line to
// negative watts; cooling power is now floored at zero.
func TestPowerForResistanceNonNegative(t *testing.T) {
	// The Cfg3->Cfg4 line (slope ~-6.7 W per K/W) crosses zero near
	// r=3.7; everything past it must clamp, not go negative.
	for _, r := range []float64{3.7, 5, 10, 100} {
		if p := PowerForResistance(r); p < 0 {
			t.Errorf("PowerForResistance(%.1f) = %.3f W, want >= 0", r, p)
		}
	}
	if p := PowerForResistance(100); p != 0 {
		t.Errorf("PowerForResistance(100) = %.3f W, want exactly 0", p)
	}
	// The clamp must not disturb the in-range interpolation.
	if p := PowerForResistance(2.5); p <= 0 || p >= 10.78 {
		t.Errorf("PowerForResistance(2.5) = %.3f W, want in (0, 10.78)", p)
	}
}
