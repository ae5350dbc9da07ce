package experiments

import (
	"fmt"

	"hmcsim/internal/chain"
	"hmcsim/internal/mem"
	"hmcsim/internal/sim"
	"hmcsim/internal/stats"
	"hmcsim/internal/trace"
)

// ExtChainData holds the multi-cube scaling study.
type ExtChainData struct {
	CubeCounts []int
	// CapacityGB and DataGBps per cube count (chain topology).
	CapacityGB []float64
	DataGBps   []float64
	// PerCubeLatencyNs for the largest chain: latency by distance.
	PerCubeLatencyNs []float64
	// RingSurvives reports whether a ring with one failed middle cube
	// still reaches every healthy cube.
	RingSurvives bool
}

// ExtChain quantifies the scalability-vs-latency trade of chaining
// cubes (Section II-B/IV-E2): capacity scales linearly, the shared
// first hop bounds bandwidth, every hop adds latency, and a ring
// reroutes around a failed package.
func ExtChain(o Options) (*ExtChainData, error) {
	d := &ExtChainData{CubeCounts: []int{1, 2, 4, 8}}
	duration := o.Measure * 3
	if duration < 300*sim.Microsecond {
		duration = 300 * sim.Microsecond
	}
	type out struct {
		cap     float64
		bw      float64
		perCube []float64
	}
	res, err := parallelMap(o, len(d.CubeCounts), func(i int) (out, error) {
		eng := sim.NewEngine()
		defer eng.Release()
		nw, err := chain.NewNetwork(eng, d.CubeCounts[i], chain.Chain, chain.DefaultParams())
		if err != nil {
			return out{}, err
		}
		be := mem.NewChain(eng, nw)
		port := newCubeSplit(be.Port(0), nw)
		gen := &uniformReads{eng: eng, rng: sim.NewRNG(o.Seed), capBytes: nw.CapacityBytes(), until: duration}
		load, err := trace.ReplayOn(be, port, gen, trace.ReplayConfig{Window: 64})
		if err != nil {
			return out{}, err
		}
		perCube := make([]float64, len(port.perCube))
		for c := range port.perCube {
			perCube[c] = port.perCube[c].Mean()
		}
		return out{
			cap:     float64(nw.CapacityBytes()) / (1 << 30),
			bw:      load.DataGBps,
			perCube: perCube,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, r := range res {
		d.CapacityGB = append(d.CapacityGB, r.cap)
		d.DataGBps = append(d.DataGBps, r.bw)
		if d.CubeCounts[i] == 8 {
			d.PerCubeLatencyNs = r.perCube
		}
	}

	// Fault-tolerance check on a 4-cube ring.
	eng := sim.NewEngine()
	defer eng.Release()
	nw, err := chain.NewNetwork(eng, 4, chain.Ring, chain.DefaultParams())
	if err != nil {
		return nil, err
	}
	nw.FailCube(1)
	capBytes := nw.CapacityBytes() / 4
	survives := true
	for _, cube := range []int{0, 2, 3} {
		ok := false
		nw.Access(eng.Now(), uint64(cube)*capBytes, 128, false, func(r chain.Result) { ok = !r.Err })
		eng.Run()
		if !ok {
			survives = false
		}
	}
	d.RingSurvives = survives
	return d, nil
}

// uniformReads is the study's load: 128 B reads at uniformly random
// 128 B-aligned addresses over the whole chain, drawn until the engine
// reaches the deadline.
type uniformReads struct {
	eng      *sim.Engine
	rng      *sim.RNG
	capBytes uint64
	until    sim.Time
}

// Next implements trace.Generator.
func (g *uniformReads) Next() (trace.Access, bool) {
	if g.eng.Now() >= g.until {
		return trace.Access{}, false
	}
	return trace.Access{Addr: g.rng.Uint64() % g.capBytes &^ 127, Size: 128}, true
}

// cubeSplit is a chain port that also records each successful access's
// round trip under its destination cube. Each in-flight access borrows
// a mem.Calls adapter, like the mem adapters', so the split allocates
// nothing in steady state.
type cubeSplit struct {
	mem.Port
	perCube []stats.LogHist
	calls   mem.Calls[mem.Result]
}

// newCubeSplit wraps port, an issue point into nw, with one latency
// record per cube.
func newCubeSplit(port mem.Port, nw *chain.Network) *cubeSplit {
	p := &cubeSplit{Port: port, perCube: make([]stats.LogHist, nw.Cubes())}
	p.calls = mem.NewCalls(func(c *mem.Call[mem.Result]) func(mem.Result) {
		return func(r mem.Result) {
			_, done := c.Release()
			if !r.Err {
				cube, _ := nw.Decode(r.Req.Addr)
				p.perCube[cube].Record(int64(r.Latency()))
			}
			done(r)
		}
	})
	return p
}

// Submit forwards the request, recording its completion on the way
// back.
func (p *cubeSplit) Submit(req mem.Request, done mem.Done) {
	p.Port.Submit(req, p.calls.Call(req, done))
}

// Report renders the chaining study.
func (d *ExtChainData) Report() Report {
	g := Grid{
		Title: "Capacity and uniform-load bandwidth vs chained cube count",
		Cols:  []string{"Cubes", "Capacity (GB)", "Data GB/s (random 128 B)"},
	}
	for i, n := range d.CubeCounts {
		g.AddRow(fmt.Sprint(n), f0(d.CapacityGB[i]), f2(d.DataGBps[i]))
	}
	lat := Grid{
		Title: "Per-cube mean latency by distance, 8-cube chain (ns)",
		Cols:  []string{"Cube", "Latency (ns)"},
	}
	for c, l := range d.PerCubeLatencyNs {
		lat.AddRow(fmt.Sprint(c), f0(l))
	}
	return Report{ID: "ext-chain", Title: "Multi-Cube Chaining Study", Grids: []Grid{g, lat},
		Notes: []string{
			"capacity scales linearly while the host's shared first hop bounds bandwidth",
			fmt.Sprintf("ring reroutes around a failed middle cube: %v (the paper's package-level fault-tolerance claim)", d.RingSurvives),
		}}
}
