// Package cooling models the paper's cooling environments (Table III):
// two backplane fans tuned by a DC power supply plus a commodity fan
// at three distances, giving four configurations with measured idle
// temperatures and computed cooling powers. It also provides the
// interpolation between thermal resistance and cooling power that
// Figure 12 is built from.
package cooling

import "fmt"

// Config is one row of Table III.
type Config struct {
	// Name is Cfg1..Cfg4.
	Name string
	// FanVoltage / FanCurrent are the backplane-fan supply settings.
	FanVoltage float64 // V
	FanCurrent float64 // A
	// ExternalFanDistanceCm is the 15 W commodity fan's distance.
	ExternalFanDistanceCm float64
	// IdleHMCSurfaceC is the measured average HMC idle temperature.
	IdleHMCSurfaceC float64
	// CoolingPowerW is the effective cooling power the paper computes
	// for the configuration (19.32/15.9/13.9/10.78 W for Cfg1..4).
	CoolingPowerW float64
	// SharedResistanceKPerW is the calibrated heatsink->ambient
	// thermal resistance of the configuration (shared by FPGA and
	// HMC), derived from the idle temperature (see thermal package).
	SharedResistanceKPerW float64
}

// Configs returns Table III, ordered Cfg1 (strongest cooling) to
// Cfg4 (weakest).
func Configs() []Config {
	return []Config{
		{Name: "Cfg1", FanVoltage: 12.0, FanCurrent: 0.36, ExternalFanDistanceCm: 45,
			IdleHMCSurfaceC: 43.1, CoolingPowerW: 19.32, SharedResistanceKPerW: 0.655},
		{Name: "Cfg2", FanVoltage: 10.0, FanCurrent: 0.29, ExternalFanDistanceCm: 90,
			IdleHMCSurfaceC: 51.7, CoolingPowerW: 15.90, SharedResistanceKPerW: 1.085},
		{Name: "Cfg3", FanVoltage: 6.5, FanCurrent: 0.14, ExternalFanDistanceCm: 90,
			IdleHMCSurfaceC: 62.3, CoolingPowerW: 13.90, SharedResistanceKPerW: 1.615},
		{Name: "Cfg4", FanVoltage: 6.0, FanCurrent: 0.13, ExternalFanDistanceCm: 135,
			IdleHMCSurfaceC: 71.6, CoolingPowerW: 10.78, SharedResistanceKPerW: 2.080},
	}
}

// ByName returns the named configuration.
func ByName(name string) (Config, error) {
	for _, c := range Configs() {
		if c.Name == name {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("cooling: unknown configuration %q", name)
}

// anchors are the Table III points ordered by ascending resistance,
// established once at package init (Configs() already returns Cfg1..4
// in that order; the init check keeps the invariant honest if the
// table ever changes) so PowerForResistance never sorts per call.
var anchors = func() []Config {
	cfgs := Configs()
	for i := 1; i < len(cfgs); i++ {
		if cfgs[i].SharedResistanceKPerW <= cfgs[i-1].SharedResistanceKPerW {
			panic("cooling: Table III resistances not strictly increasing")
		}
	}
	return cfgs
}()

// PowerForResistance interpolates the cooling power required to
// realize a given shared thermal resistance, using the four Table III
// anchor points (linear between anchors, linear extrapolation past
// the ends). Lower resistance (better cooling) costs more power; past
// the weak-cooling end the extrapolation is clamped at zero watts —
// free convection needs no fan power, never negative power.
func PowerForResistance(r float64) float64 {
	interp := func(a, b Config) float64 {
		t := (r - a.SharedResistanceKPerW) / (b.SharedResistanceKPerW - a.SharedResistanceKPerW)
		return a.CoolingPowerW + t*(b.CoolingPowerW-a.CoolingPowerW)
	}
	var w float64
	switch {
	case r <= anchors[0].SharedResistanceKPerW:
		w = interp(anchors[0], anchors[1])
	case r >= anchors[len(anchors)-1].SharedResistanceKPerW:
		w = interp(anchors[len(anchors)-2], anchors[len(anchors)-1])
	default:
		for i := 0; i+1 < len(anchors); i++ {
			if r <= anchors[i+1].SharedResistanceKPerW {
				w = interp(anchors[i], anchors[i+1])
				break
			}
		}
	}
	if w < 0 {
		return 0
	}
	return w
}
