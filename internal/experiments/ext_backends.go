package experiments

import (
	"fmt"

	"hmcsim/internal/scenario"
)

// Backends exposes the cross-backend layer of the registry: one
// experiment per cross-backend spec (id "scn-<name>", like the
// builtin scenarios) plus the backend-x-workload comparison matrix.
func Backends() []Experiment {
	out := []Experiment{
		{"ext-backends", "Cross-backend matrix: the same workloads on hmc, ddr4 and chain", runReport(ExtBackends)},
	}
	for _, spec := range scenario.CrossBackend() {
		out = append(out, specExperiment(spec, scenarioOptions))
	}
	return out
}

// backendCell names one (workload shape, backend) cell of the matrix.
type backendCell struct {
	shape   string
	backend string
	data    float64
	latNs   float64
	latN    uint64
}

// ExtBackendsData holds the comparison matrix.
type ExtBackendsData struct {
	Shapes   []string
	Backends []string
	Cells    []backendCell // len(Shapes) x len(Backends), shape-major
}

// backendSpec builds the matrix cell's scenario: the same four-port
// tenant shape compiled onto each backend (one HMC cube behind the
// AC-510 controller, one DDR4-2400 channel, a four-cube chain).
func backendSpec(shape, backend string) scenario.Spec {
	t := scenario.Tenant{Name: "load", Ports: 4, Size: 128}
	switch shape {
	case "zipfian":
		t.Access = scenario.Access{Kind: "zipfian", ZipfTheta: 0.99}
	case "hotspot":
		t.Access = scenario.Access{Kind: "hotspot", HotFraction: 0.1, HotRate: 0.9}
	case "mixed-rw":
		t.Mix = "mix"
		t.ReadFraction = 0.7
	case "seqjump":
		t.Access = scenario.Access{Kind: "seqjump", JumpEvery: 32}
	}
	return scenario.Spec{
		Name:    fmt.Sprintf("mx-%s-%s", shape, backend),
		Backend: backend,
		Tenants: []scenario.Tenant{t},
	}
}

// ExtBackends runs the matrix: every workload shape on every backend,
// under identical tenant drivers and measurement windows — the
// side-by-side methodology the mem.Backend abstraction exists for.
func ExtBackends(o Options) (*ExtBackendsData, error) {
	d := &ExtBackendsData{
		Shapes:   []string{"uniform", "zipfian", "hotspot", "mixed-rw", "seqjump"},
		Backends: []string{"hmc", "ddr4", "chain"},
	}
	n := len(d.Shapes) * len(d.Backends)
	cells, err := parallelMap(o, n, func(i int) (backendCell, error) {
		shape := d.Shapes[i/len(d.Backends)]
		backend := d.Backends[i%len(d.Backends)]
		res, err := scenario.Run(backendSpec(shape, backend), o.Options)
		if err != nil {
			return backendCell{}, err
		}
		return backendCell{
			shape: shape, backend: backend,
			data:  res.Total.DataGBps,
			latN:  res.Total.ReadHistNs.N(),
			latNs: res.Total.ReadHistNs.Mean(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	d.Cells = cells
	return d, nil
}

// Report renders the matrix: one bandwidth grid and one latency grid,
// workloads down, backends across.
func (d *ExtBackendsData) Report() Report {
	cell := func(shape, backend string) backendCell {
		for _, c := range d.Cells {
			if c.shape == shape && c.backend == backend {
				return c
			}
		}
		return backendCell{}
	}
	bw := Grid{
		Title: "Data bandwidth (GB/s): 4-port tenant, 128 B, closed loop",
		Cols:  []string{"Workload", "hmc (1 cube)", "ddr4 (1 ch)", "chain (4 cubes)"},
	}
	lat := Grid{
		Title: "Mean read latency (ns)",
		Cols:  []string{"Workload", "hmc (1 cube)", "ddr4 (1 ch)", "chain (4 cubes)"},
	}
	for _, shape := range d.Shapes {
		var bws, lats []string
		for _, backend := range d.Backends {
			c := cell(shape, backend)
			bws = append(bws, f2(c.data))
			if c.latN > 0 {
				lats = append(lats, f0(c.latNs))
			} else {
				lats = append(lats, "-")
			}
		}
		bw.AddRow(shape, bws[0], bws[1], bws[2])
		lat.AddRow(shape, lats[0], lats[1], lats[2])
	}
	return Report{ID: "ext-backends", Title: "Cross-Backend Comparison Matrix", Grids: []Grid{bw, lat},
		Notes: []string{
			"identical tenant drivers and windows on every backend (internal/mem); payload-only bandwidth shown so packet overhead does not flatter the wire numbers",
			"hmc bandwidth is shape-invariant (closed page, 256 banks); ddr4 runs near bus saturation under the deep per-channel window, with row hits shaving its latency on the hot shapes; the chain pays per-hop routing latency for 4x the capacity",
		}}
}
