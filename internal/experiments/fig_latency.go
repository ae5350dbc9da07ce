package experiments

import (
	"fmt"

	"hmcsim/internal/fpga"
	"hmcsim/internal/gups"
	"hmcsim/internal/hmc"
	"hmcsim/internal/sim"
	"hmcsim/internal/stats"
	"hmcsim/internal/workloads"
)

// Figure14Data holds the latency deconstruction: the architectural
// stage budget plus a measured single-packet trace.
type Figure14Data struct {
	TXStages []fpga.Stage
	RXStages []fpga.Stage
	// Trace is the measured segment breakdown of one low-load 128 B
	// read (name, nanoseconds).
	Trace [][2]string
	// InfrastructureNs and DeviceNs split the measured round trip.
	InfrastructureNs float64
	DeviceNs         float64
	TotalNs          float64
}

// Figure14 reproduces the TX/RX path deconstruction.
func Figure14(o Options) (*Figure14Data, error) {
	fp := fpga.DefaultParams()
	d := &Figure14Data{
		TXStages: fp.TXStages(9),
		RXStages: fp.RXStages(9),
	}
	rig, err := gups.BuildRigPorts(gups.Config{}, nil)
	if err != nil {
		return nil, err
	}
	defer rig.Eng.Release()
	var res fpga.Result
	rig.Ctrl.Submit(hmc.Request{Addr: 0, Size: 128}, func(r fpga.Result) { res = r })
	rig.Eng.Run()
	seg := func(name string, from, to sim.Time) {
		d.Trace = append(d.Trace, [2]string{name, f0((to - from).Nanoseconds())})
	}
	seg("TX path (port -> link)", res.Submit, res.DeviceArrive)
	seg("Vault queue + DRAM bank", res.DeviceArrive, res.BankEnd)
	seg("TSV transfer + egress", res.BankEnd, res.RespDepart)
	seg("Response link transfer", res.RespDepart, res.Deliver)
	seg("RX path (link -> port)", res.Deliver, res.PortDeliver)
	d.TotalNs = res.Latency().Nanoseconds()
	d.DeviceNs = (res.RespDepart - res.DeviceArrive).Nanoseconds()
	d.InfrastructureNs = d.TotalNs - d.DeviceNs
	return d, nil
}

// Report renders Figure 14.
func (d *Figure14Data) Report() Report {
	budget := Grid{
		Title: "Architectural stage budget, 9-flit (128 B) packet (Figure 14)",
		Cols:  []string{"Path", "Stage", "Cycles", "Time (ns)"},
	}
	for _, s := range append(append([]fpga.Stage{}, d.TXStages...), d.RXStages...) {
		budget.AddRow(s.Path, s.Name, f1(s.Cycles), f1(s.Time.Nanoseconds()))
	}
	trace := Grid{
		Title: "Measured low-load 128 B read deconstruction",
		Cols:  []string{"Segment", "Time (ns)"},
	}
	for _, t := range d.Trace {
		trace.AddRow(t[0], t[1])
	}
	trace.AddRow("TOTAL", f0(d.TotalNs))
	return Report{
		ID: "figure14", Title: "TX/RX Path Latency Deconstruction",
		Grids: []Grid{budget, trace},
		Notes: []string{fmt.Sprintf("infrastructure-related %0.f ns vs in-device %0.f ns (paper: 547 ns infrastructure, ~125 ns average in HMC)",
			d.InfrastructureNs, d.DeviceNs)},
	}
}

// Figure15Data holds the low-load latency curves.
type Figure15Data struct {
	Sizes  []int
	Counts []int
	// Avg/Min/Max[size][n] in microseconds.
	Avg, Min, Max map[int]map[int]float64
}

// Figure15 reproduces the stream-GUPS low-load latency experiment:
// 2..28 reads per burst, four packet sizes.
func Figure15(o Options) (*Figure15Data, error) {
	sizes := []int{16, 32, 64, 128}
	var counts []int
	for n := 2; n <= 28; n += 2 {
		counts = append(counts, n)
	}
	type cell struct {
		size, n int
		s       stats.LogHist
	}
	total := len(sizes) * len(counts)
	cells, err := parallelMap(o, total, func(i int) (cell, error) {
		size := sizes[i/len(counts)]
		n := counts[i%len(counts)]
		res, err := gups.RunStream(gups.StreamConfig{N: n, Size: size, Seed: o.Seed})
		if err != nil {
			return cell{}, err
		}
		return cell{size: size, n: n, s: res.LatencyNs}, nil
	})
	if err != nil {
		return nil, err
	}
	d := &Figure15Data{
		Sizes: sizes, Counts: counts,
		Avg: map[int]map[int]float64{}, Min: map[int]map[int]float64{}, Max: map[int]map[int]float64{},
	}
	for _, c := range cells {
		if d.Avg[c.size] == nil {
			d.Avg[c.size] = map[int]float64{}
			d.Min[c.size] = map[int]float64{}
			d.Max[c.size] = map[int]float64{}
		}
		d.Avg[c.size][c.n] = c.s.Mean() / 1000
		d.Min[c.size][c.n] = c.s.Min() / 1000
		d.Max[c.size][c.n] = c.s.Max() / 1000
	}
	return d, nil
}

// Report renders Figure 15.
func (d *Figure15Data) Report() Report {
	var grids []Grid
	for _, size := range d.Sizes {
		g := Grid{
			Title: fmt.Sprintf("Low-load latency (us) vs number of reads, size %d B (Figure 15)", size),
			Cols:  []string{"# reads", "avg", "min", "max"},
		}
		for _, n := range d.Counts {
			g.AddRow(fmt.Sprint(n), f2(d.Avg[size][n]), f2(d.Min[size][n]), f2(d.Max[size][n]))
		}
		grids = append(grids, g)
	}
	return Report{ID: "figure15", Title: "Low-Load Latency vs Request Count", Grids: grids,
		Notes: []string{"minimum latency stays flat while average/maximum grow with burst size; large packets grow faster"}}
}

// Figure16Data holds the high-load latency sweep.
type Figure16Data struct {
	Patterns []string
	// LatencyUs/BW[pattern][size].
	LatencyUs map[string]map[int]float64
	BW        map[string]map[int]float64
}

// Figure16 reproduces the high-load read latency experiment across
// patterns for 128/64/32 B requests: the cells of Figure 8.
func Figure16(o Options) (*Figure16Data, error) {
	cells, err := sizeSweep(o)
	if err != nil {
		return nil, err
	}
	d := &Figure16Data{LatencyUs: map[string]map[int]float64{}, BW: map[string]map[int]float64{}}
	for _, p := range workloads.Standard() {
		d.Patterns = append(d.Patterns, p.Name)
	}
	for pat, bySize := range cells {
		d.LatencyUs[pat] = map[int]float64{}
		d.BW[pat] = map[int]float64{}
		for size, res := range bySize {
			d.LatencyUs[pat][size] = res.ReadHistNs.Mean() / 1000
			d.BW[pat][size] = res.RawGBps
		}
	}
	return d, nil
}

// Report renders Figure 16.
func (d *Figure16Data) Report() Report {
	g := Grid{
		Title: "High-load read latency (us) and bandwidth (GB/s) (Figure 16)",
		Cols: []string{"Pattern", "Lat 128B", "Lat 64B", "Lat 32B",
			"BW 128B", "BW 64B", "BW 32B"},
	}
	for _, pat := range d.Patterns {
		g.AddRow(pat,
			f2(d.LatencyUs[pat][128]), f2(d.LatencyUs[pat][64]), f2(d.LatencyUs[pat][32]),
			f2(d.BW[pat][128]), f2(d.BW[pat][64]), f2(d.BW[pat][32]))
	}
	return Report{ID: "figure16", Title: "High-Load Latency Across Patterns", Grids: []Grid{g},
		Notes: []string{"32 B latency is always lowest (vault data bus granularity); targeted patterns pay queuing, distributed patterns exploit BLP"}}
}

// CurvePoint is one (bandwidth, latency) sample of a small-scale
// GUPS sweep.
type CurvePoint struct {
	Ports     int
	BWGBps    float64
	LatencyUs float64
	MRPS      float64
}

// sweepPorts runs a small-scale port sweep for one pattern and size.
func sweepPorts(o Options, zeroMask uint64, size int) []CurvePoint {
	pts := make([]CurvePoint, 0, 9)
	for ports := 1; ports <= 9; ports++ {
		res := runCell(o, gups.ReadOnly, size, zeroMask, gups.Random, ports)
		pts = append(pts, CurvePoint{
			Ports:     ports,
			BWGBps:    res.RawGBps,
			LatencyUs: res.ReadHistNs.Mean() / 1000,
			MRPS:      res.MRPS,
		})
	}
	return pts
}

// Figure17Data holds the 4-bank and 2-bank latency/bandwidth curves
// plus the Little's-law occupancy analysis.
type Figure17Data struct {
	Sizes []int
	// Curves[pattern][size].
	Curves map[string]map[int][]CurvePoint
	// OutstandingAtSat[pattern][size] is Little's L = lambda*W at the
	// 9-port (saturated) point, in requests.
	OutstandingAtSat map[string]map[int]float64
	// SaturationBW[pattern][size] is the 9-port raw bandwidth. The
	// paper's per-bank-queue inference appears here: the two-bank
	// pattern saturates at half the four-bank bandwidth, so at any
	// matched latency its Little's occupancy is half as large.
	SaturationBW map[string]map[int]float64
}

// figure17Patterns are the two panels of Figure 17.
func figure17Patterns() []workloads.Pattern {
	return []workloads.Pattern{workloads.BankPattern(4), workloads.BankPattern(2)}
}

// Figure17 reproduces the latency-vs-request-bandwidth study for
// four-bank and two-bank access patterns: Figure 18's curves for two
// of its patterns.
func Figure17(o Options) (*Figure17Data, error) {
	c, err := portCurves(o, figure17Patterns())
	if err != nil {
		return nil, err
	}
	d := &Figure17Data{
		Sizes:            c.Sizes,
		Curves:           c.Curves,
		OutstandingAtSat: map[string]map[int]float64{},
		SaturationBW:     map[string]map[int]float64{},
	}
	for pat, bySize := range c.Curves {
		d.OutstandingAtSat[pat] = map[int]float64{}
		d.SaturationBW[pat] = map[int]float64{}
		for size, pts := range bySize {
			sat := pts[len(pts)-1]
			d.OutstandingAtSat[pat][size] = stats.Littles(sat.MRPS*1e6, sat.LatencyUs/1e6)
			d.SaturationBW[pat][size] = sat.BWGBps
		}
	}
	return d, nil
}

// OccupancyAtLatency evaluates Little's L for a pattern/size at a
// given latency by interpolating the curve's bandwidth there; it is
// how the per-bank queue structure shows up (two banks hold half the
// requests of four banks at any matched latency).
func (d *Figure17Data) OccupancyAtLatency(pattern string, size int, latencyUs float64) float64 {
	pts := d.Curves[pattern][size]
	for i := 1; i < len(pts); i++ {
		if pts[i].LatencyUs >= latencyUs {
			// Linear interpolation of MRPS between the two points.
			a, b := pts[i-1], pts[i]
			t := 0.0
			if b.LatencyUs > a.LatencyUs {
				t = (latencyUs - a.LatencyUs) / (b.LatencyUs - a.LatencyUs)
			}
			mrps := a.MRPS + t*(b.MRPS-a.MRPS)
			return stats.Littles(mrps*1e6, latencyUs/1e6)
		}
	}
	if len(pts) == 0 {
		return 0
	}
	last := pts[len(pts)-1]
	return stats.Littles(last.MRPS*1e6, latencyUs/1e6)
}

// Report renders Figure 17.
func (d *Figure17Data) Report() Report {
	var grids []Grid
	for _, pat := range []string{"4 banks", "2 banks"} {
		g := Grid{
			Title: fmt.Sprintf("Read latency vs request bandwidth, %s (Figure 17)", pat),
			Cols:  []string{"Size (B)", "Ports", "BW (GB/s)", "Latency (us)"},
		}
		for _, size := range d.Sizes {
			for _, pt := range d.Curves[pat][size] {
				g.AddRow(fmt.Sprint(size), fmt.Sprint(pt.Ports), f2(pt.BWGBps), f2(pt.LatencyUs))
			}
		}
		grids = append(grids, g)
	}
	littles := Grid{
		Title: "Little's-law occupancy analysis (Section IV-E4)",
		Cols: []string{"Size (B)", "Sat BW 4 banks", "Sat BW 2 banks",
			"L(4 banks) @ matched latency", "L(2 banks)", "Ratio"},
	}
	for _, size := range d.Sizes {
		lat := 0.0
		if pts := d.Curves["4 banks"][size]; len(pts) == 9 {
			lat = pts[8].LatencyUs * 0.8
		}
		o4 := d.OccupancyAtLatency("4 banks", size, lat)
		o2 := d.OccupancyAtLatency("2 banks", size, lat)
		ratio := 0.0
		if o4 > 0 {
			ratio = o2 / o4
		}
		littles.AddRow(fmt.Sprint(size),
			f2(d.SaturationBW["4 banks"][size]), f2(d.SaturationBW["2 banks"][size]),
			f0(o4), f0(o2), f2(ratio))
	}
	grids = append(grids, littles)
	return Report{ID: "figure17", Title: "Latency vs Request Bandwidth (4/2 Banks)", Grids: grids,
		Notes: []string{
			"at any matched latency the two-bank pattern holds about half the outstanding requests of the four-bank pattern: the vault controller queues per bank (Section IV-E4)",
			"at full 9-port load, occupancy in this model is bound by the 9x64 read tags (~576) for both patterns; the paper's occupancy constant (~375) was inferred at the saturation knee",
		}}
}

// Figure18Data holds the full pattern x size x port sweep.
type Figure18Data struct {
	Sizes    []int
	Patterns []string
	Curves   map[string]map[int][]CurvePoint
}

// Figure18 extends Figure 17 to all nine patterns and four sizes.
func Figure18(o Options) (*Figure18Data, error) {
	return portCurves(o, workloads.Standard())
}

// portCurves runs the small-scale port sweep (read-only, 1..9 ports)
// of every pattern at 16, 32, 64 and 128 B: the one sweep behind
// Figures 17 and 18.
func portCurves(o Options, pats []workloads.Pattern) (*Figure18Data, error) {
	sizes := []int{16, 32, 64, 128}
	cells, err := parallelMap(o, len(pats)*len(sizes), func(i int) ([]CurvePoint, error) {
		return sweepPorts(o, pats[i/len(sizes)].ZeroMask, sizes[i%len(sizes)]), nil
	})
	if err != nil {
		return nil, err
	}
	d := &Figure18Data{Sizes: sizes, Curves: map[string]map[int][]CurvePoint{}}
	for _, p := range pats {
		d.Patterns = append(d.Patterns, p.Name)
		d.Curves[p.Name] = map[int][]CurvePoint{}
	}
	for i, pts := range cells {
		d.Curves[pats[i/len(sizes)].Name][sizes[i%len(sizes)]] = pts
	}
	return d, nil
}

// SaturationBW returns the 9-port bandwidth for a pattern and size.
func (d *Figure18Data) SaturationBW(pattern string, size int) float64 {
	pts := d.Curves[pattern][size]
	if len(pts) == 0 {
		return 0
	}
	return pts[len(pts)-1].BWGBps
}

// Report renders Figure 18.
func (d *Figure18Data) Report() Report {
	var grids []Grid
	for _, size := range d.Sizes {
		g := Grid{
			Title: fmt.Sprintf("Read latency vs bandwidth, size %d B (Figure 18)", size),
			Cols:  []string{"Pattern", "Ports", "BW (GB/s)", "Latency (us)"},
		}
		for _, pat := range d.Patterns {
			for _, pt := range d.Curves[pat][size] {
				g.AddRow(pat, fmt.Sprint(pt.Ports), f2(pt.BWGBps), f2(pt.LatencyUs))
			}
		}
		grids = append(grids, g)
	}
	return Report{ID: "figure18", Title: "Latency vs Bandwidth, All Patterns", Grids: grids,
		Notes: []string{"two-vault accesses saturate near twice the 10 GB/s single-vault limit; beyond two vaults the sweep cannot generate enough parallelism to reach saturation"}}
}
