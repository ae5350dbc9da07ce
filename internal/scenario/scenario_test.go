package scenario

import (
	"testing"

	"hmcsim/internal/gups"
	"hmcsim/internal/sim"
)

func quick() Options {
	return Options{Warmup: 30 * sim.Microsecond, Measure: 100 * sim.Microsecond, Seed: 1}
}

// TestUniformMatchesGUPS: the default uniform scenario must reproduce
// the full-scale GUPS figure operating point byte-identically — the
// scenario engine is a re-expression of the existing rig, not a
// second model.
func TestUniformMatchesGUPS(t *testing.T) {
	o := quick()
	ref, err := gups.Run(gups.Config{
		Type: gups.ReadOnly, Size: 128, Mode: gups.Random,
		Warmup: o.Warmup, Measure: o.Measure, Seed: o.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ByName("uniform")
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(spec, o)
	if err != nil {
		t.Fatal(err)
	}
	if got.Total.RawGBps != ref.RawGBps {
		t.Errorf("raw GB/s: scenario %v != gups %v", got.Total.RawGBps, ref.RawGBps)
	}
	if got.Total.DataGBps != ref.DataGBps {
		t.Errorf("data GB/s: scenario %v != gups %v", got.Total.DataGBps, ref.DataGBps)
	}
	if got.Total.MRPS != ref.MRPS {
		t.Errorf("MRPS: scenario %v != gups %v", got.Total.MRPS, ref.MRPS)
	}
	if got.Total.Reads != ref.Reads || got.Total.Writes != ref.Writes {
		t.Errorf("ops: scenario %d/%d != gups %d/%d",
			got.Total.Reads, got.Total.Writes, ref.Reads, ref.Writes)
	}
	if got.Total.ReadHistNs.Mean() != ref.ReadHistNs.Mean() ||
		got.Total.ReadHistNs.N() != ref.ReadHistNs.N() {
		t.Errorf("latency: scenario %v/%d != gups %v/%d",
			got.Total.ReadHistNs.Mean(), got.Total.ReadHistNs.N(),
			ref.ReadHistNs.Mean(), ref.ReadHistNs.N())
	}
}

// TestBuiltinScenariosRun: every builtin spec validates and produces
// traffic end to end.
func TestBuiltinScenariosRun(t *testing.T) {
	for _, spec := range Builtin() {
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
				t.Fatal("scenario produced no traffic")
			}
			if res.Total.RawGBps <= 0 {
				t.Fatalf("no bandwidth: %+v", res.Total)
			}
			if len(res.Tenants) != len(spec.Tenants) {
				t.Fatalf("tenant stats %d != spec tenants %d", len(res.Tenants), len(spec.Tenants))
			}
			rep := res.Report()
			if len(rep.Grids) == 0 || len(rep.Grids[0].Rows) == 0 {
				t.Fatal("empty report")
			}
		})
	}
}

// TestScenarioReproducible: same spec + seed => byte-identical report
// across runs (seeded zipfian/hotspot generators included).
func TestScenarioReproducible(t *testing.T) {
	for _, name := range []string{"zipfian", "hotspot", "tenants-4", "chain-4", "uniform-ddr4"} {
		spec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		a := MustRun(spec, quick()).Report().Table()
		b := MustRun(spec, quick()).Report().Table()
		if a != b {
			t.Errorf("%s: two identical runs diverged:\n%s\n---\n%s", name, a, b)
		}
	}
}

// TestTenantIsolationStats: the 4-tenant mix reports non-zero traffic
// for every tenant, and the writer tenant reports no reads.
func TestTenantIsolationStats(t *testing.T) {
	spec, err := ByName("tenants-4")
	if err != nil {
		t.Fatal(err)
	}
	res := MustRun(spec, quick())
	for _, ts := range res.Tenants {
		if ts.Reads+ts.Writes == 0 {
			t.Errorf("tenant %s produced no traffic", ts.Name)
		}
		switch ts.Name {
		case "bulk-write":
			if ts.Reads != 0 {
				t.Errorf("write-only tenant measured %d reads", ts.Reads)
			}
		case "stream", "cache":
			if ts.Writes != 0 {
				t.Errorf("read-only tenant %s measured %d writes", ts.Name, ts.Writes)
			}
		}
	}
}

// TestOpenLoopRate: open-loop injection paces requests at the
// configured arrival rate instead of saturating the device.
func TestOpenLoopRate(t *testing.T) {
	spec := Spec{
		Name: "openloop-test",
		Tenants: []Tenant{{
			Name: "probe", Ports: 2,
			Inject: Injection{Mode: "open", RateMRPS: 1},
		}},
	}
	res := MustRun(spec, quick())
	// 2 ports x 1 MRPS = 2 MRPS aggregate; allow generous slack for
	// warmup-edge effects but fail if the port free-runs (closed loop
	// would deliver tens of MRPS).
	if res.Total.MRPS < 1.5 || res.Total.MRPS > 2.5 {
		t.Errorf("open-loop 2x1 MRPS measured %.2f MRPS", res.Total.MRPS)
	}
	closed := MustRun(Spec{Name: "c", Tenants: []Tenant{{Name: "p", Ports: 2}}}, quick())
	if closed.Total.MRPS < 4*res.Total.MRPS {
		t.Errorf("closed loop (%.1f MRPS) should dwarf the 2 MRPS probe", closed.Total.MRPS)
	}
}

// TestOutstandingWindow: a 1-outstanding closed loop is
// latency-bound and must deliver far less than the full tag pool.
func TestOutstandingWindow(t *testing.T) {
	narrow := MustRun(Spec{
		Name:    "w1",
		Tenants: []Tenant{{Name: "t", Ports: 1, Inject: Injection{Outstanding: 1}}},
	}, quick())
	wide := MustRun(Spec{
		Name:    "w64",
		Tenants: []Tenant{{Name: "t", Ports: 1}},
	}, quick())
	if narrow.Total.MRPS*2 > wide.Total.MRPS {
		t.Errorf("outstanding=1 (%.1f MRPS) should be far below the full window (%.1f MRPS)",
			narrow.Total.MRPS, wide.Total.MRPS)
	}
}

// TestValidationErrors: malformed specs are rejected with errors, not
// panics deep in the rig.
func TestValidationErrors(t *testing.T) {
	cases := []Spec{
		{Name: ""},
		{Name: "no-tenants"},
		{Name: "bad-mix", Tenants: []Tenant{{Name: "t", Mix: "nope"}}},
		{Name: "bad-access", Tenants: []Tenant{{Name: "t", Access: Access{Kind: "nope"}}}},
		{Name: "bad-pattern", Tenants: []Tenant{{Name: "t", Pattern: "3 vaults"}}},
		{Name: "bad-topo", Topology: "mesh", Tenants: []Tenant{{Name: "t"}}},
		{Name: "open-no-rate", Tenants: []Tenant{{Name: "t", Inject: Injection{Mode: "open"}}}},
		{Name: "bad-theta", Tenants: []Tenant{{Name: "t", Access: Access{Kind: "zipfian", ZipfTheta: 1.5}}}},
		{Name: "chain-pattern", Topology: "chain", Tenants: []Tenant{{Name: "t", Pattern: "1 bank"}}},
		{Name: "anon-tenant", Tenants: []Tenant{{}}},
		{Name: "bad-backend", Backend: "hbm", Tenants: []Tenant{{Name: "t"}}},
		{Name: "ddr4-pattern", Backend: "ddr4", Tenants: []Tenant{{Name: "t", Pattern: "1 bank"}}},
		{Name: "ddr4-channels", Backend: "ddr4", Channels: 9, Tenants: []Tenant{{Name: "t"}}},
		{Name: "ddr4-chain-topo", Backend: "ddr4", Topology: "chain", Tenants: []Tenant{{Name: "t"}}},
		{Name: "chain-single-topo", Backend: "chain", Topology: "single", Tenants: []Tenant{{Name: "t"}}},
		{Name: "hmc-chain-topo", Backend: "hmc", Topology: "chain", Tenants: []Tenant{{Name: "t"}}},
	}
	for _, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %q: expected validation error", s.Name)
		}
		if _, err := Run(s, quick()); err == nil {
			t.Errorf("spec %q: Run accepted invalid spec", s.Name)
		}
	}
	if _, err := ByName("no-such-scenario"); err == nil {
		t.Error("ByName accepted unknown scenario")
	}
}

// TestPatternConfinement: confining a tenant to one bank via the
// Pattern field must slash its bandwidth versus the full device
// (exercises the workloads-mask plumbing end to end).
func TestPatternConfinement(t *testing.T) {
	o := quick()
	uni := MustRun(mustByName(t, "uniform"), o)
	confined := MustRun(Spec{
		Name:    "one-bank",
		Tenants: []Tenant{{Name: "t", Ports: 9, Pattern: "1 bank"}},
	}, o)
	if confined.Total.RawGBps*3 > uni.Total.RawGBps {
		t.Errorf("1-bank pattern (%.2f GB/s) should be far below full device (%.2f GB/s)",
			confined.Total.RawGBps, uni.Total.RawGBps)
	}
}

// TestChainVsSingleLatency: the chain scenario pays per-hop routing
// latency, so its mean read latency must exceed a single cube's under
// the same closed-loop window.
func TestChainVsSingleLatency(t *testing.T) {
	o := quick()
	single := MustRun(Spec{
		Name:    "one-cube",
		Tenants: []Tenant{{Name: "t", Ports: 1, Inject: Injection{Outstanding: 64}}},
	}, o)
	chain4 := MustRun(mustByName(t, "chain-4"), o)
	if chain4.Total.ReadHistNs.Mean() <= single.Total.ReadHistNs.Mean() {
		t.Errorf("chain latency %.0f ns should exceed single-cube %.0f ns",
			chain4.Total.ReadHistNs.Mean(), single.Total.ReadHistNs.Mean())
	}
}

func mustByName(t *testing.T, name string) Spec {
	t.Helper()
	s, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestChainNonPow2Cubes: a 3-cube chain (non-power-of-two capacity)
// must run without skewing the generator space onto the low cubes
// (regression for the modulo fold) — it runs, produces traffic, and
// replays deterministically.
func TestChainNonPow2Cubes(t *testing.T) {
	spec := Spec{
		Name:     "chain-3",
		Topology: "chain",
		Cubes:    3,
		Tenants: []Tenant{
			{Name: "uni", Ports: 2},
			{Name: "zipf", Ports: 1, Access: Access{Kind: "zipfian"}},
		},
	}
	a := MustRun(spec, quick())
	if a.Total.Reads == 0 {
		t.Fatal("3-cube chain produced no traffic")
	}
	b := MustRun(spec, quick())
	if a.Report().Table() != b.Report().Table() {
		t.Error("3-cube chain not reproducible")
	}
}

// TestOpenLoopFractionalRate: a rate whose period is not a whole
// number of nanoseconds must still be realized accurately (the
// interval is computed in picoseconds; regression for truncation).
func TestOpenLoopFractionalRate(t *testing.T) {
	spec := Spec{
		Name: "frac-rate",
		Tenants: []Tenant{{
			Name: "probe", Ports: 3,
			Inject: Injection{Mode: "open", RateMRPS: 3}, // 333.33 ns period
		}},
	}
	res := MustRun(spec, quick())
	if res.Total.MRPS < 8.5 || res.Total.MRPS > 9.5 {
		t.Errorf("3 ports x 3 MRPS measured %.2f MRPS, want ~9", res.Total.MRPS)
	}
}

// TestChainSizeValidation: chain topologies validate payload sizes
// just like single-cube (regression — they bypassed BuildRigPorts).
func TestChainSizeValidation(t *testing.T) {
	s := Spec{Topology: "chain", Name: "bad-size",
		Tenants: []Tenant{{Name: "t", Size: 100}}}
	if err := s.Validate(); err == nil {
		t.Error("chain tenant with 100 B payload accepted")
	}
	if _, err := Run(s, quick()); err == nil {
		t.Error("Run accepted invalid chain payload")
	}
}

// TestChainCubeRange: Validate is a complete pre-flight check — cube
// counts beyond the chain package's 1..8 limit are rejected before
// any building happens (regression).
func TestChainCubeRange(t *testing.T) {
	s := Spec{Topology: "chain", Cubes: 9, Name: "too-long",
		Tenants: []Tenant{{Name: "t"}}}
	if err := s.Validate(); err == nil {
		t.Error("9-cube chain accepted by Validate")
	}
}
