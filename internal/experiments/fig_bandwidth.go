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
	// Masks are the mask positions, each named by its bit range.
	Masks []workloads.Pattern
	// BW[maskLabel][type] is raw bandwidth in GB/s.
	BW map[string]map[gups.ReqType]float64
}

// Figure6 reproduces the eight-bit mask sweep: raw bandwidth of
// 128 B ro/rw/wo when address bits [lo,hi] are forced to zero.
func Figure6(o Options) (*Figure6Data, error) {
	masks := workloads.Figure6Masks()
	cells, err := typeSweep(o, masks)
	if err != nil {
		return nil, err
	}
	return &Figure6Data{Masks: masks, BW: rawBW(cells)}, nil
}

// Report renders Figure 6.
func (d *Figure6Data) Report() Report {
	g := Grid{
		Title: "Raw bandwidth (GB/s) vs bit locations forced to zero (Figure 6)",
		Cols:  []string{"Mask bits", "ro", "rw", "wo"},
	}
	for _, m := range d.Masks {
		g.AddRow(m.Name, f2(d.BW[m.Name][gups.ReadOnly]),
			f2(d.BW[m.Name][gups.ReadModifyWrite]), f2(d.BW[m.Name][gups.WriteOnly]))
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
// access patterns: the cells of the thermal sweep.
func Figure7(o Options) (*Figure7Data, error) {
	cells, err := thermalSweep(o)
	if err != nil {
		return nil, err
	}
	return &Figure7Data{Patterns: workloads.Standard(), BW: rawBW(cells)}, nil
}

// rawBW folds type-sweep cells into raw bandwidth per pattern and type.
func rawBW(cells []ThermalCell) map[string]map[gups.ReqType]float64 {
	bw := map[string]map[gups.ReqType]float64{}
	for _, c := range cells {
		if bw[c.Pattern] == nil {
			bw[c.Pattern] = map[gups.ReqType]float64{}
		}
		bw[c.Pattern][c.Type] = c.Result.RawGBps
	}
	return bw
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
	cells, err := sizeSweep(o)
	if err != nil {
		return nil, err
	}
	d := &Figure8Data{
		Patterns: workloads.Standard(),
		BW:       map[string]map[int]float64{},
		MRPS:     map[string]map[int]float64{},
	}
	for pat, bySize := range cells {
		d.BW[pat] = map[int]float64{}
		d.MRPS[pat] = map[int]float64{}
		for size, res := range bySize {
			d.BW[pat][size] = res.RawGBps
			d.MRPS[pat][size] = res.MRPS
		}
	}
	return d, nil
}

// sizeSweep runs the 27 full-scale read-only cells Figures 8 and 16
// share, the nine standard patterns at 128, 64 and 32 B, and returns
// them by pattern name and size.
func sizeSweep(o Options) (map[string]map[int]gups.Result, error) {
	pats := workloads.Standard()
	sizes := []int{128, 64, 32}
	res, err := parallelMap(o, len(pats)*len(sizes), func(i int) (gups.Result, error) {
		return runCell(o, gups.ReadOnly, sizes[i%len(sizes)], pats[i/len(sizes)].ZeroMask, gups.Random, 0), nil
	})
	if err != nil {
		return nil, err
	}
	cells := map[string]map[int]gups.Result{}
	for i, r := range res {
		pat := pats[i/len(sizes)].Name
		if cells[pat] == nil {
			cells[pat] = map[int]gups.Result{}
		}
		cells[pat][sizes[i%len(sizes)]] = r
	}
	return cells, nil
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
