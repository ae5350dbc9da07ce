package scenario

import (
	"testing"

	"hmcsim/internal/chain"
	"hmcsim/internal/hmc"
	"hmcsim/internal/mem"
	"hmcsim/internal/sim"
)

// ddrLinear is one tenant of 64 B linear reads on one open-page DDR4
// channel, the shape of ext-ddr's linear run.
func ddrLinear() Spec {
	return Spec{Name: "ddr-linear", Backend: "ddr4",
		Tenants: []Tenant{{Name: "load", Size: 64, Access: Access{Kind: "linear"}}}}
}

// TestRowHitRateOnlyOnBareDDR: RowHitRate carries the row-buffer hit
// rate of a bare ddr4 channel set, and reads 0 wherever none backs the
// run. The hit-rate and bandwidth bounds of the ddr4 load itself are
// checked in package ddr.
func TestRowHitRateOnlyOnBareDDR(t *testing.T) {
	if lin := MustRun(ddrLinear(), quick()); lin.RowHitRate == 0 {
		t.Error("linear ddr4 load reported no row hits")
	}
	faulty := quick()
	faulty.Faults.Plan = "rate=0.01"
	for name, res := range map[string]Result{
		"hmc":               MustRun(mustByName(t, "uniform"), quick()),
		"chain":             MustRun(mustByName(t, "chain-4"), quick()),
		"ddr4 under faults": MustRun(ddrLinear(), faulty),
		"ddr4 in 4 groups":  MustRun(mustByName(t, "ddr4-quad"), quick()),
	} {
		if res.RowHitRate != 0 {
			t.Errorf("%s: row-hit rate %.2f, want 0", name, res.RowHitRate)
		}
	}
}

// TestHMCGeometrySplit: the two hmc runners do not split on the cube.
// gups.Port rigs (the paper figures) and the tenant-driver runner
// (thermal, faults, burst, ramps, lifecycle) both build the paper's
// AC-510 part, HMC11 (4 GB, 16 banks/vault).
func TestHMCGeometrySplit(t *testing.T) {
	want := hmc.Geometries(hmc.HMC11)
	spec := mustByName(t, "uniform").withDefaults()
	o := quick().withDefaults()
	rigs, _, err := buildRigs(spec, o, sim.NewMesh(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := rigs[0].Dev.Geometry(); got != want {
		t.Errorf("gups.Port runner cube = %v, want %v", got.Gen, want.Gen)
	}
	backends, err := buildBackends(spec, sim.NewMesh(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := backends[0].CapacityBytes(); got != want.SizeBytes {
		t.Errorf("driver runner cube holds %d bytes, want %v's %d", got, want.Gen, want.SizeBytes)
	}
}

// TestCrossBackendLibraryRuns: every cross-backend spec validates,
// runs, and produces traffic for every tenant.
func TestCrossBackendLibraryRuns(t *testing.T) {
	for _, spec := range CrossBackend() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			if err := spec.Validate(); err != nil {
				t.Fatal(err)
			}
			res, err := Run(spec, quick())
			if err != nil {
				t.Fatal(err)
			}
			if res.Total.Reads+res.Total.Writes == 0 {
				t.Fatal("no traffic")
			}
			for _, ts := range res.Tenants {
				if ts.Reads+ts.Writes == 0 {
					t.Errorf("tenant %s produced no traffic", ts.Name)
				}
			}
			a := MustRun(spec, quick()).Report().Table()
			b := MustRun(spec, quick()).Report().Table()
			if a != b {
				t.Error("two identical runs diverged")
			}
		})
	}
}

// TestBackendFeatureParity: the tenant mixes and injection modes the
// hmc backend supports — including rw (read-modify-write) and
// open-loop pacing — run on the ddr4 and chain backends too.
func TestBackendFeatureParity(t *testing.T) {
	bases := []Spec{
		{Name: "p-ddr", Backend: "ddr4"},
		{Name: "p-chain", Topology: "ring", Cubes: 3},
	}
	tenants := map[string]Tenant{
		"rw":   {Name: "t", Mix: "rw"},
		"mix":  {Name: "t", Mix: "mix", ReadFraction: 0.7},
		"open": {Name: "t", Inject: Injection{Mode: "open", RateMRPS: 2}},
		"zipf": {Name: "t", Access: Access{Kind: "zipfian"}},
	}
	for _, base := range bases {
		for label, ten := range tenants {
			spec := base
			spec.Name = base.Name + "-" + label
			spec.Tenants = []Tenant{ten}
			t.Run(spec.Name, func(t *testing.T) {
				res, err := Run(spec, quick())
				if err != nil {
					t.Fatal(err)
				}
				if res.Total.Reads+res.Total.Writes == 0 {
					t.Fatal("no traffic")
				}
				switch label {
				case "rw":
					if res.Total.Writes == 0 {
						t.Error("rw mix produced no write-backs")
					}
					// Reads and RMW write-backs pair up to a window of
					// in-flight slack.
					if diff := int64(res.Total.Reads) - int64(res.Total.Writes); diff < 0 || diff > 256 {
						t.Errorf("rw pairing off: %d reads vs %d writes", res.Total.Reads, res.Total.Writes)
					}
				case "open":
					// 1 port x 2 MRPS, generous slack for warmup edges.
					if res.Total.MRPS < 1.5 || res.Total.MRPS > 2.5 {
						t.Errorf("open-loop 2 MRPS realized %.2f MRPS", res.Total.MRPS)
					}
				}
			})
		}
	}
}

// TestDDRMultiChannelScales: two interleaved channels must outrun one
// under a parallel uniform load (the port-parallelism parity the
// multi-channel wrapper exists for).
func TestDDRMultiChannelScales(t *testing.T) {
	run := func(channels int) Result {
		return MustRun(Spec{
			Name:     "chan-scale",
			Backend:  "ddr4",
			Channels: channels,
			Tenants:  []Tenant{{Name: "load", Ports: 4, Size: 64}},
		}, quick())
	}
	one, two := run(1), run(2)
	if two.Total.DataGBps < one.Total.DataGBps*1.5 {
		t.Errorf("2 channels (%.2f GB/s) should near-double 1 channel (%.2f GB/s)",
			two.Total.DataGBps, one.Total.DataGBps)
	}
}

// TestChainFailRepairUnderLoad: sustained scenario-style load over a
// ring while a cube fails and is later repaired. Requests to healthy
// cubes keep completing (rerouted), requests to the failed cube
// error, every issued request completes exactly once, and the whole
// history replays deterministically.
func TestChainFailRepairUnderLoad(t *testing.T) {
	type outcome struct {
		issued, completed uint64
		errs              uint64
		okDuringFail      [4]uint64 // successful completions per cube during the outage
		errAfterRepair    uint64
	}
	run := func() outcome {
		eng := sim.NewEngine()
		nw, err := chain.NewNetwork(eng, 4, chain.Ring, chain.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		be := mem.NewChain(eng, nw)
		port := be.Port(0)
		rng := sim.NewRNG(7)
		horizon := sim.Time(300 * sim.Microsecond)
		failAt := sim.Time(100 * sim.Microsecond)
		repairAt := sim.Time(200 * sim.Microsecond)
		var out outcome
		inFlight := 0
		var pump func()
		// Classify by submission time: a request in flight when the
		// cube fails may legitimately still complete.
		onDone := func(r mem.Result) {
			inFlight--
			out.completed++
			cube, _ := nw.Decode(r.Req.Addr)
			if r.Err {
				out.errs++
				if r.Submit > repairAt {
					out.errAfterRepair++
				}
			} else if r.Submit > failAt && r.Submit < repairAt {
				out.okDuringFail[cube]++
			}
			pump()
		}
		pump = func() {
			for inFlight < 64 && eng.Now() < horizon {
				addr := rng.Uint64() % be.CapacityBytes() &^ 127
				inFlight++
				out.issued++
				port.Submit(mem.Request{Addr: addr, Size: 128}, onDone)
			}
		}
		eng.Schedule(0, pump)
		eng.Schedule(failAt, func() { nw.FailCube(1) })
		eng.Schedule(repairAt, func() { nw.RepairCube(1) })
		eng.Run()
		return out
	}

	out := run()
	if out.issued != out.completed {
		t.Fatalf("issued %d != completed %d: requests lost under failure", out.issued, out.completed)
	}
	if out.errs == 0 {
		t.Error("no errors observed while a cube was failed")
	}
	for _, cube := range []int{0, 2, 3} {
		if out.okDuringFail[cube] == 0 {
			t.Errorf("cube %d starved during the outage (ring should reroute)", cube)
		}
	}
	if out.okDuringFail[1] != 0 {
		t.Errorf("failed cube 1 completed %d accesses during its outage", out.okDuringFail[1])
	}
	if out.errAfterRepair != 0 {
		t.Errorf("%d errors after repair settled", out.errAfterRepair)
	}
	if again := run(); again != out {
		t.Errorf("fail/repair history not deterministic: %+v != %+v", again, out)
	}
}
