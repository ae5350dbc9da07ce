package experiments

import (
	"fmt"
	"sort"

	"hmcsim/internal/cooling"
	"hmcsim/internal/gups"
	"hmcsim/internal/power"
	"hmcsim/internal/stats"
	"hmcsim/internal/thermal"
	"hmcsim/internal/workloads"
)

// ThermalCell is one (pattern, type) operating point with its
// measured traffic profile.
type ThermalCell struct {
	Pattern  string
	Type     gups.ReqType
	Result   gups.Result
	Activity power.Activity
}

// thermalSweep runs the 27 full-scale GUPS cells shared by Figures 7
// and 9-12 (the paper reuses the same access patterns for its
// thermal and power studies).
func thermalSweep(o Options) ([]ThermalCell, error) {
	return typeSweep(o, workloads.Standard())
}

// typeSweep runs full-scale 128 B ro/rw/wo cells over a list of
// footprints, pattern-major in allTypes order: Figure 6 sweeps its
// mask positions through it, thermalSweep the standard patterns.
func typeSweep(o Options, pats []workloads.Pattern) ([]ThermalCell, error) {
	n := len(pats) * len(allTypes)
	return parallelMap(o, n, func(i int) (ThermalCell, error) {
		p := pats[i/len(allTypes)]
		ty := allTypes[i%len(allTypes)]
		res := runCell(o, ty, 128, p.ZeroMask, gups.Random, 0)
		return ThermalCell{
			Pattern: p.Name,
			Type:    ty,
			Result:  res,
			Activity: power.Activity{
				RawGBps:   res.RawGBps,
				ReadMRPS:  res.ReadMRPS,
				WriteMRPS: res.WriteMRPS,
				PureWrite: ty == gups.WriteOnly,
			},
		}, nil
	})
}

// Figure9Data holds temperatures per pattern/config/type plus the
// failure matrix.
type Figure9Data struct {
	Patterns []string
	Cells    []ThermalCell
	// TempC[type][config][pattern] is the steady surface temperature.
	TempC map[gups.ReqType]map[string]map[string]float64
	// ConfigFailed[type][config] is true when any pattern under that
	// config exceeds the workload's thermal threshold — those configs
	// are absent from the paper's figure.
	ConfigFailed map[gups.ReqType]map[string]bool
	// Runaway[config] is true when the leakage fixed point diverges
	// under that configuration — the network has no finite steady
	// state at any load, which is a different failure than tripping a
	// shutdown threshold and is rendered distinctly.
	Runaway map[string]bool
}

// Figure9 reproduces the temperature/bandwidth sweep across cooling
// configurations.
func Figure9(o Options) (*Figure9Data, error) {
	cells, err := thermalSweep(o)
	if err != nil {
		return nil, err
	}
	tm := thermal.DefaultModel()
	pm := power.DefaultModel()
	d := &Figure9Data{
		Cells:        cells,
		TempC:        map[gups.ReqType]map[string]map[string]float64{},
		ConfigFailed: map[gups.ReqType]map[string]bool{},
		Runaway:      map[string]bool{},
	}
	for _, p := range workloads.Standard() {
		d.Patterns = append(d.Patterns, p.Name)
	}
	for _, c := range cells {
		if d.TempC[c.Type] == nil {
			d.TempC[c.Type] = map[string]map[string]float64{}
			d.ConfigFailed[c.Type] = map[string]bool{}
		}
		writeSig := c.Type != gups.ReadOnly
		for _, cfg := range cooling.Configs() {
			temp, ok := tm.SteadySurface(cfg, pm, c.Activity)
			if !ok {
				d.Runaway[cfg.Name] = true
			}
			if d.TempC[c.Type][cfg.Name] == nil {
				d.TempC[c.Type][cfg.Name] = map[string]float64{}
			}
			d.TempC[c.Type][cfg.Name][c.Pattern] = temp
			if tm.Exceeds(temp, writeSig) {
				d.ConfigFailed[c.Type][cfg.Name] = true
			}
		}
	}
	return d, nil
}

// BWOf returns the measured raw bandwidth for a (type, pattern) cell.
func (d *Figure9Data) BWOf(ty gups.ReqType, pattern string) float64 {
	for _, c := range d.Cells {
		if c.Type == ty && c.Pattern == pattern {
			return c.Result.RawGBps
		}
	}
	return 0
}

// ShownConfigs lists the configurations the paper's figure would
// include for a request type (those without thermal failures).
func (d *Figure9Data) ShownConfigs(ty gups.ReqType) []string {
	var out []string
	for _, cfg := range cooling.Configs() {
		if !d.ConfigFailed[ty][cfg.Name] {
			out = append(out, cfg.Name)
		}
	}
	return out
}

// Report renders Figure 9.
func (d *Figure9Data) Report() Report {
	var grids []Grid
	for _, ty := range []gups.ReqType{gups.ReadOnly, gups.WriteOnly, gups.ReadModifyWrite} {
		g := Grid{
			Title: fmt.Sprintf("Surface temperature (degC) and bandwidth, %v (Figure 9)", ty),
			Cols:  []string{"Pattern", "BW (GB/s)", "Cfg1", "Cfg2", "Cfg3", "Cfg4"},
		}
		for _, pat := range d.Patterns {
			row := []string{pat, f2(d.BWOf(ty, pat))}
			for _, cfg := range cooling.Configs() {
				cell := f1(d.TempC[ty][cfg.Name][pat])
				switch {
				case d.Runaway[cfg.Name]:
					cell += " (RUNAWAY)"
				case d.ConfigFailed[ty][cfg.Name]:
					cell += " (FAIL)"
				}
				row = append(row, cell)
			}
			g.AddRow(row...)
		}
		grids = append(grids, g)
	}
	notes := []string{
		"configs marked FAIL trip the thermal shutdown during the sweep and are absent from the paper's figure",
	}
	if len(d.Runaway) > 0 {
		notes = append(notes,
			"RUNAWAY marks a diverging leakage fixed point (no finite steady state) rather than an ordinary shutdown")
	}
	notes = append(notes,
		fmt.Sprintf("read-only shown configs: %v; write-only: %v; read-modify-write: %v",
			d.ShownConfigs(gups.ReadOnly), d.ShownConfigs(gups.WriteOnly), d.ShownConfigs(gups.ReadModifyWrite)))
	return Report{ID: "figure9", Title: "Temperature and Bandwidth Across Patterns", Grids: grids, Notes: notes}
}

// Figure10Data holds average machine power per pattern/config/type.
type Figure10Data struct {
	Fig9   *Figure9Data
	PowerW map[gups.ReqType]map[string]map[string]float64
}

// Figure10 reproduces the power sweep, coupling the power model to
// the Figure 9 temperatures (leakage makes hot configs costlier at
// equal bandwidth).
func Figure10(o Options) (*Figure10Data, error) {
	f9, err := Figure9(o)
	if err != nil {
		return nil, err
	}
	tm := thermal.DefaultModel()
	pm := power.DefaultModel()
	d := &Figure10Data{Fig9: f9, PowerW: map[gups.ReqType]map[string]map[string]float64{}}
	for _, c := range f9.Cells {
		if d.PowerW[c.Type] == nil {
			d.PowerW[c.Type] = map[string]map[string]float64{}
		}
		for _, cfg := range cooling.Configs() {
			temp := f9.TempC[c.Type][cfg.Name][c.Pattern]
			if d.PowerW[c.Type][cfg.Name] == nil {
				d.PowerW[c.Type][cfg.Name] = map[string]float64{}
			}
			d.PowerW[c.Type][cfg.Name][c.Pattern] = pm.MachineW(c.Activity, temp, tm.IdleSurfaceC(cfg))
		}
	}
	return d, nil
}

// Report renders Figure 10.
func (d *Figure10Data) Report() Report {
	var grids []Grid
	for _, ty := range []gups.ReqType{gups.ReadOnly, gups.WriteOnly, gups.ReadModifyWrite} {
		g := Grid{
			Title: fmt.Sprintf("Average machine power (W) and bandwidth, %v (Figure 10)", ty),
			Cols:  []string{"Pattern", "BW (GB/s)", "Cfg1", "Cfg2", "Cfg3", "Cfg4"},
		}
		for _, pat := range d.Fig9.Patterns {
			row := []string{pat, f2(d.Fig9.BWOf(ty, pat))}
			for _, cfg := range cooling.Configs() {
				cell := f1(d.PowerW[ty][cfg.Name][pat])
				switch {
				case d.Fig9.Runaway[cfg.Name]:
					cell += " (RUNAWAY)"
				case d.Fig9.ConfigFailed[ty][cfg.Name]:
					cell += " (FAIL)"
				}
				row = append(row, cell)
			}
			g.AddRow(row...)
		}
		grids = append(grids, g)
	}
	return Report{ID: "figure10", Title: "Average Power Across Patterns", Grids: grids,
		Notes: []string{"machine idle power is 100 W; variation above it is attributed to the HMC and constant FPGA activity"}}
}

// Figure11Data holds the Cfg2 linear fits.
type Figure11Data struct {
	TempFit  map[gups.ReqType]stats.Fit
	PowerFit map[gups.ReqType]stats.Fit
	// Warming5to20 is the fitted temperature rise from 5 to 20 GB/s.
	Warming5to20 map[gups.ReqType]float64
	// PowerRise5to20 is the fitted device power rise over the same span.
	PowerRise5to20 map[gups.ReqType]float64
}

// Figure11 fits temperature-vs-bandwidth and power-vs-bandwidth lines
// over the Cfg2 sweep (the hottest configuration in which no request
// type fails), as the paper does.
func Figure11(o Options) (*Figure11Data, error) {
	f10, err := Figure10(o)
	if err != nil {
		return nil, err
	}
	f9 := f10.Fig9
	d := &Figure11Data{
		TempFit:        map[gups.ReqType]stats.Fit{},
		PowerFit:       map[gups.ReqType]stats.Fit{},
		Warming5to20:   map[gups.ReqType]float64{},
		PowerRise5to20: map[gups.ReqType]float64{},
	}
	for _, ty := range allTypes {
		var xs, ts, ps []float64
		for _, pat := range f9.Patterns {
			bw := f9.BWOf(ty, pat)
			xs = append(xs, bw)
			ts = append(ts, f9.TempC[ty]["Cfg2"][pat])
			ps = append(ps, f10.PowerW[ty]["Cfg2"][pat])
		}
		tf, err := stats.LinearFit(xs, ts)
		if err != nil {
			return nil, fmt.Errorf("figure11 temperature fit (%v): %w", ty, err)
		}
		pf, err := stats.LinearFit(xs, ps)
		if err != nil {
			return nil, fmt.Errorf("figure11 power fit (%v): %w", ty, err)
		}
		d.TempFit[ty] = tf
		d.PowerFit[ty] = pf
		d.Warming5to20[ty] = tf.At(20) - tf.At(5)
		d.PowerRise5to20[ty] = pf.At(20) - pf.At(5)
	}
	return d, nil
}

// Report renders Figure 11.
func (d *Figure11Data) Report() Report {
	g := Grid{
		Title: "Cfg2 linear fits vs raw bandwidth (Figure 11)",
		Cols: []string{"Type", "Temp slope (degC per GB/s)", "Temp R2", "Warming 5->20 GB/s (degC)",
			"Power slope (W per GB/s)", "Power R2", "Power rise 5->20 GB/s (W)"},
	}
	for _, ty := range allTypes {
		g.AddRow(ty.String(),
			fmt.Sprintf("%.3f", d.TempFit[ty].Slope), f2(d.TempFit[ty].R2), f2(d.Warming5to20[ty]),
			fmt.Sprintf("%.3f", d.PowerFit[ty].Slope), f2(d.PowerFit[ty].R2), f2(d.PowerRise5to20[ty]))
	}
	return Report{ID: "figure11", Title: "Temperature and Power vs Bandwidth (Cfg2)", Grids: []Grid{g},
		Notes: []string{"paper: ~3-4 degC warming and ~2 W power rise from 5 to 20 GB/s; wo has the steepest temperature slope"}}
}

// Figure12Data holds the iso-temperature cooling-power curves.
type Figure12Data struct {
	// Curves[type][targetC] is a list of (bandwidth, cooling W)
	// points sorted by bandwidth.
	Curves map[gups.ReqType]map[int][][2]float64
	// AvgDeltaPer16GBps is the mean cooling-power growth per 16 GB/s
	// across all curves (the paper reports ~1.5 W).
	AvgDeltaPer16GBps float64
}

// figure12Targets are the iso-temperature lines per request type,
// chosen like the paper's panels (ro spans 50-70 degC, wo 45-50,
// rw 45-55).
var figure12Targets = map[gups.ReqType][]int{
	gups.ReadOnly:        {50, 55, 60, 65, 70},
	gups.WriteOnly:       {45, 50},
	gups.ReadModifyWrite: {45, 50, 55},
}

// Figure12 derives cooling power vs bandwidth at constant temperature
// from the thermal sweep.
func Figure12(o Options) (*Figure12Data, error) {
	cells, err := thermalSweep(o)
	if err != nil {
		return nil, err
	}
	tm := thermal.DefaultModel()
	pm := power.DefaultModel()
	d := &Figure12Data{Curves: map[gups.ReqType]map[int][][2]float64{}}
	var deltas []float64
	for _, ty := range allTypes {
		var pts []ThermalCell
		for _, c := range cells {
			if c.Type == ty {
				pts = append(pts, c)
			}
		}
		sort.Slice(pts, func(i, j int) bool { return pts[i].Result.RawGBps < pts[j].Result.RawGBps })
		d.Curves[ty] = map[int][][2]float64{}
		for _, target := range figure12Targets[ty] {
			var curve [][2]float64
			for _, c := range pts {
				w, err := tm.CoolingPowerForTarget(float64(target), pm, c.Activity)
				if err != nil {
					continue // unreachable target at this load
				}
				curve = append(curve, [2]float64{c.Result.RawGBps, w})
			}
			if len(curve) >= 2 {
				d.Curves[ty][target] = curve
				span := curve[len(curve)-1][0] - curve[0][0]
				if span > 1 {
					deltas = append(deltas, (curve[len(curve)-1][1]-curve[0][1])*16/span)
				}
			}
		}
	}
	for _, x := range deltas {
		d.AvgDeltaPer16GBps += x
	}
	if len(deltas) > 0 {
		d.AvgDeltaPer16GBps /= float64(len(deltas))
	}
	return d, nil
}

// Report renders Figure 12.
func (d *Figure12Data) Report() Report {
	var grids []Grid
	for _, ty := range allTypes {
		g := Grid{
			Title: fmt.Sprintf("Cooling power (W) to hold temperature vs bandwidth, %v (Figure 12)", ty),
			Cols:  []string{"Target (degC)", "BW (GB/s)", "Cooling power (W)"},
		}
		targets := figure12Targets[ty]
		for _, target := range targets {
			for _, pt := range d.Curves[ty][target] {
				g.AddRow(fmt.Sprint(target), f2(pt[0]), f2(pt[1]))
			}
		}
		grids = append(grids, g)
	}
	return Report{ID: "figure12", Title: "Cooling Power vs Bandwidth", Grids: grids,
		Notes: []string{fmt.Sprintf("average cooling-power growth: %.2f W per 16 GB/s (paper ~1.5 W)", d.AvgDeltaPer16GBps)}}
}
