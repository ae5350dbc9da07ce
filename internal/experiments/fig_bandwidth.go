package experiments

import (
	"hmcsim/internal/gups"
	"hmcsim/internal/workloads"
)

// allTypes is the ro/rw/wo request-type axis shared by several figures.
var allTypes = []gups.ReqType{gups.ReadOnly, gups.ReadModifyWrite, gups.WriteOnly}

// runCell executes one full-scale GUPS cell.
func runCell(o Options, ty gups.ReqType, size int, zeroMask uint64, mode gups.Mode, ports int) gups.Result {
	cfg := gups.Config{
		Type:     ty,
		Size:     size,
		Mode:     mode,
		ZeroMask: zeroMask,
		Ports:    ports,
		Warmup:   o.Warmup,
		Measure:  o.Measure,
		Seed:     o.Seed,
	}
	return gups.MustRun(cfg)
}

// Figure6Data holds the mask-position bandwidth sweep.
type Figure6Data struct {
	Masks []workloads.MaskPosition
	// BW[maskIndex][type] is raw bandwidth in GB/s.
	BW map[string]map[gups.ReqType]float64
}

// Figure6 reproduces the eight-bit mask sweep: raw bandwidth of
// 128 B ro/rw/wo when address bits [lo,hi] are forced to zero.
func Figure6(o Options) (*Figure6Data, error) {
	masks := workloads.Figure6Masks()
	type cell struct {
		label string
		ty    gups.ReqType
		bw    float64
	}
	n := len(masks) * len(allTypes)
	cells, err := parallelMap(o, n, func(i int) (cell, error) {
		m := masks[i/len(allTypes)]
		ty := allTypes[i%len(allTypes)]
		res := runCell(o, ty, 128, m.ZeroMask, gups.Random, 0)
		return cell{label: m.Label, ty: ty, bw: res.RawGBps}, nil
	})
	if err != nil {
		return nil, err
	}
	d := &Figure6Data{Masks: masks, BW: map[string]map[gups.ReqType]float64{}}
	for _, c := range cells {
		if d.BW[c.label] == nil {
			d.BW[c.label] = map[gups.ReqType]float64{}
		}
		d.BW[c.label][c.ty] = c.bw
	}
	return d, nil
}

// Report renders Figure 6.
func (d *Figure6Data) Report() Report {
	g := Grid{
		Title: "Raw bandwidth (GB/s) vs bit locations forced to zero (Figure 6)",
		Cols:  []string{"Mask bits", "ro", "rw", "wo"},
	}
	for _, m := range d.Masks {
		g.AddRow(m.Label, f2(d.BW[m.Label][gups.ReadOnly]),
			f2(d.BW[m.Label][gups.ReadModifyWrite]), f2(d.BW[m.Label][gups.WriteOnly]))
	}
	return Report{ID: "figure6", Title: "Bandwidth vs Address-Mask Position", Grids: []Grid{g},
		Notes: []string{"two half-width links active; raw bandwidth includes header and tail"}}
}

// Figure7Data holds bandwidth per access pattern per request type.
type Figure7Data struct {
	Patterns []workloads.Pattern
	BW       map[string]map[gups.ReqType]float64
}

// Figure7 reproduces bandwidth for 128 B ro/rw/wo across the standard
// access patterns.
func Figure7(o Options) (*Figure7Data, error) {
	pats := workloads.Standard()
	type cell struct {
		pat string
		ty  gups.ReqType
		bw  float64
	}
	n := len(pats) * len(allTypes)
	cells, err := parallelMap(o, n, func(i int) (cell, error) {
		p := pats[i/len(allTypes)]
		ty := allTypes[i%len(allTypes)]
		res := runCell(o, ty, 128, p.ZeroMask, gups.Random, 0)
		return cell{pat: p.Name, ty: ty, bw: res.RawGBps}, nil
	})
	if err != nil {
		return nil, err
	}
	d := &Figure7Data{Patterns: pats, BW: map[string]map[gups.ReqType]float64{}}
	for _, c := range cells {
		if d.BW[c.pat] == nil {
			d.BW[c.pat] = map[gups.ReqType]float64{}
		}
		d.BW[c.pat][c.ty] = c.bw
	}
	return d, nil
}

// Report renders Figure 7.
func (d *Figure7Data) Report() Report {
	g := Grid{
		Title: "Raw bandwidth (GB/s) per access pattern, 128 B requests (Figure 7)",
		Cols:  []string{"Pattern", "ro", "rw", "wo"},
	}
	for _, p := range d.Patterns {
		g.AddRow(p.Name, f2(d.BW[p.Name][gups.ReadOnly]),
			f2(d.BW[p.Name][gups.ReadModifyWrite]), f2(d.BW[p.Name][gups.WriteOnly]))
	}
	return Report{ID: "figure7", Title: "Bandwidth per Access Pattern", Grids: []Grid{g}}
}

// Figure8Data holds the size sweep: bandwidth bars + MRPS lines.
type Figure8Data struct {
	Patterns []workloads.Pattern
	// BW[pattern][size] and MRPS[pattern][size].
	BW   map[string]map[int]float64
	MRPS map[string]map[int]float64
}

// Figure8 reproduces read-only bandwidth and million-requests-per-
// second across patterns for 128/64/32 B requests.
func Figure8(o Options) (*Figure8Data, error) {
	pats := workloads.Standard()
	sizes := []int{128, 64, 32}
	type cell struct {
		pat  string
		size int
		res  gups.Result
	}
	n := len(pats) * len(sizes)
	cells, err := parallelMap(o, n, func(i int) (cell, error) {
		p := pats[i/len(sizes)]
		size := sizes[i%len(sizes)]
		return cell{pat: p.Name, size: size, res: runCell(o, gups.ReadOnly, size, p.ZeroMask, gups.Random, 0)}, nil
	})
	if err != nil {
		return nil, err
	}
	d := &Figure8Data{
		Patterns: pats,
		BW:       map[string]map[int]float64{},
		MRPS:     map[string]map[int]float64{},
	}
	for _, c := range cells {
		if d.BW[c.pat] == nil {
			d.BW[c.pat] = map[int]float64{}
			d.MRPS[c.pat] = map[int]float64{}
		}
		d.BW[c.pat][c.size] = c.res.RawGBps
		d.MRPS[c.pat][c.size] = c.res.MRPS
	}
	return d, nil
}

// Report renders Figure 8.
func (d *Figure8Data) Report() Report {
	g := Grid{
		Title: "Read-only bandwidth and request rate vs size (Figure 8)",
		Cols: []string{"Pattern", "BW 128B", "BW 64B", "BW 32B",
			"MRPS 128B", "MRPS 64B", "MRPS 32B"},
	}
	for _, p := range d.Patterns {
		g.AddRow(p.Name,
			f2(d.BW[p.Name][128]), f2(d.BW[p.Name][64]), f2(d.BW[p.Name][32]),
			f1(d.MRPS[p.Name][128]), f1(d.MRPS[p.Name][64]), f1(d.MRPS[p.Name][32]))
	}
	return Report{ID: "figure8", Title: "Bandwidth and MRPS vs Request Size", Grids: []Grid{g}}
}

// Figure13Data holds the closed-page policy experiment.
type Figure13Data struct {
	Sizes []int
	// BW[patternLabel][mode][size]; patterns are "16 vaults" and
	// "1 vault" as in the figure.
	BW map[string]map[gups.Mode]map[int]float64
}

// Figure13 reproduces the linear-vs-random experiment across all
// eight request sizes for 16-vault and 1-vault read-only patterns.
func Figure13(o Options) (*Figure13Data, error) {
	pats := []workloads.Pattern{workloads.VaultPattern(16), workloads.VaultPattern(1)}
	modes := []gups.Mode{gups.Linear, gups.Random}
	sizes := []int{128, 112, 96, 80, 64, 48, 32, 16}
	type cell struct {
		pat  string
		mode gups.Mode
		size int
		bw   float64
	}
	n := len(pats) * len(modes) * len(sizes)
	cells, err := parallelMap(o, n, func(i int) (cell, error) {
		p := pats[i/(len(modes)*len(sizes))]
		mode := modes[(i/len(sizes))%len(modes)]
		size := sizes[i%len(sizes)]
		res := runCell(o, gups.ReadOnly, size, p.ZeroMask, mode, 0)
		return cell{pat: p.Name, mode: mode, size: size, bw: res.RawGBps}, nil
	})
	if err != nil {
		return nil, err
	}
	d := &Figure13Data{Sizes: sizes, BW: map[string]map[gups.Mode]map[int]float64{}}
	for _, c := range cells {
		if d.BW[c.pat] == nil {
			d.BW[c.pat] = map[gups.Mode]map[int]float64{}
		}
		if d.BW[c.pat][c.mode] == nil {
			d.BW[c.pat][c.mode] = map[int]float64{}
		}
		d.BW[c.pat][c.mode][c.size] = c.bw
	}
	return d, nil
}

// Report renders Figure 13.
func (d *Figure13Data) Report() Report {
	g := Grid{
		Title: "Read-only bandwidth (GB/s), linear vs random, per request size (Figure 13)",
		Cols:  []string{"Pattern", "Mode", "128B", "112B", "96B", "80B", "64B", "48B", "32B", "16B"},
	}
	for _, pat := range []string{"16 vaults", "1 vault"} {
		for _, mode := range []gups.Mode{gups.Linear, gups.Random} {
			row := []string{pat, mode.String()}
			for _, size := range d.Sizes {
				row = append(row, f2(d.BW[pat][mode][size]))
			}
			g.AddRow(row...)
		}
	}
	return Report{ID: "figure13", Title: "Closed-Page Policy: Linear vs Random", Grids: []Grid{g},
		Notes: []string{"with the closed-page policy linear and random bandwidth are similar; bandwidth grows with request size"}}
}
