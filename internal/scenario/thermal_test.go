package scenario

import (
	"fmt"
	"strings"
	"testing"

	"hmcsim/internal/cooling"
	"hmcsim/internal/hmc"
	"hmcsim/internal/runner"
	"hmcsim/internal/sim"
	"hmcsim/internal/thermal"
)

// thermalOpts are fast feedback-loop windows: the compressed RC time
// constant (20 us) fits several settling periods inside them.
func thermalOpts(cfg string) Options {
	return Options{
		Warmup:  30 * sim.Microsecond,
		Measure: 150 * sim.Microsecond,
		Thermal: true,
		Cooling: cfg,
	}
}

func hotWriteSpec(backend string) Spec {
	s := Spec{
		Name:    "thermal-" + backend,
		Backend: backend,
		Tenants: []Tenant{{Name: "bulk", Ports: 4, Mix: "wo"}},
	}
	if backend == "chain" {
		s.Topology = "chain"
	}
	return s
}

// TestThermalRunAllBackends: the closed loop runs on hmc, ddr4 and
// chain; a saturating write stream under the weakest cooling heats
// every system past idle and engages the throttle.
func TestThermalRunAllBackends(t *testing.T) {
	for _, backend := range []string{"hmc", "ddr4", "chain"} {
		res, err := Run(hotWriteSpec(backend), thermalOpts("Cfg4"))
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		ts := res.Thermal
		if ts == nil {
			t.Fatalf("%s: no thermal telemetry", backend)
		}
		wantZones := 1
		if backend == "chain" {
			wantZones = 4
		}
		if len(ts.Zones) != wantZones {
			t.Fatalf("%s: %d zones, want %d", backend, len(ts.Zones), wantZones)
		}
		c4, _ := cooling.ByName("Cfg4")
		idle := thermal.DefaultModel().IdleSurfaceC(c4)
		if ts.MaxC() <= idle {
			t.Errorf("%s: peak %.1fC never rose above idle %.1fC", backend, ts.MaxC(), idle)
		}
		throttled := false
		for _, z := range ts.Zones {
			throttled = throttled || z.LevelUps > 0 || z.Shutdowns > 0
		}
		if !throttled {
			t.Errorf("%s: weakest cooling never throttled (peak %.1fC)", backend, ts.MaxC())
		}
		if res.Total.Writes == 0 {
			t.Errorf("%s: no traffic completed", backend)
		}
	}
}

// TestThermalFeedbackDegradesService: under the weakest cooling the
// feedback loop costs measurable throughput and write latency
// compared to the same spec with thermal disabled — the closed-loop
// behavior Figures 9-12's open-loop arithmetic could not show.
func TestThermalFeedbackDegradesService(t *testing.T) {
	spec := hotWriteSpec("ddr4")
	naiveOpts := thermalOpts("Cfg4")
	naiveOpts.Thermal = false
	naive := MustRun(spec, naiveOpts)
	hot := MustRun(spec, thermalOpts("Cfg4"))
	if hot.Total.MRPS >= naive.Total.MRPS {
		t.Errorf("throttled MRPS %.2f not below naive %.2f", hot.Total.MRPS, naive.Total.MRPS)
	}
	// The stretch dominates the tail even where queue draining hides
	// it from the mean: the throttled max round trip exceeds the
	// unthrottled one by at least one full derate step.
	if hot.Total.WriteHistNs.Max() <= naive.Total.WriteHistNs.Max() {
		t.Errorf("throttled write latency max %.0f ns not above naive %.0f ns",
			hot.Total.WriteHistNs.Max(), naive.Total.WriteHistNs.Max())
	}
	// Stronger cooling throttles less: Cfg1 sustains more throughput
	// than Cfg4 on the identical workload and spends less of the run
	// derated.
	cold := MustRun(spec, thermalOpts("Cfg1"))
	if cold.Total.MRPS <= hot.Total.MRPS {
		t.Errorf("Cfg1 MRPS %.2f not above Cfg4 %.2f", cold.Total.MRPS, hot.Total.MRPS)
	}
	if cold.Thermal.Zones[0].ThrottledFrac >= hot.Thermal.Zones[0].ThrottledFrac {
		t.Errorf("Cfg1 throttled %.0f%% of samples, Cfg4 only %.0f%%",
			cold.Thermal.Zones[0].ThrottledFrac*100, hot.Thermal.Zones[0].ThrottledFrac*100)
	}
}

// TestThermalDeterminism: a thermal run replays byte-identically —
// telemetry and the full rendered report (tail grid included, so the
// histograms are compared by content, not pointer).
func TestThermalDeterminism(t *testing.T) {
	render := func(r Result) string {
		var sb strings.Builder
		if err := runner.Sinks()[0].Write(&sb, r.Report()); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	opts := thermalOpts("Cfg4")
	opts.Tail = true
	for _, backend := range []string{"hmc", "ddr4", "chain"} {
		spec := hotWriteSpec(backend)
		a := MustRun(spec, opts)
		b := MustRun(spec, opts)
		if got, want := fmt.Sprintf("%+v", a.Thermal), fmt.Sprintf("%+v", b.Thermal); got != want {
			t.Errorf("%s: thermal telemetry not reproducible:\n%s\nvs\n%s", backend, got, want)
		}
		if ra, rb := render(a), render(b); ra != rb {
			t.Errorf("%s: rendered report not byte-identical", backend)
		}
	}
}

// TestThermalPlacement: rotating a hotspot tenant's hot set onto a
// different cube moves the heat with it — the knob the thermal-aware
// placement experiment turns.
func TestThermalPlacement(t *testing.T) {
	place := func(offset uint64) Spec {
		return Spec{
			Name:     "placement",
			Topology: "chain",
			Cubes:    4,
			Tenants: []Tenant{{
				Name: "hot", Ports: 4, Mix: "wo",
				Access: Access{Kind: "hotspot", HotFraction: 0.1, HotRate: 0.95, OffsetBytes: offset},
			}},
		}
	}
	base := MustRun(place(0), thermalOpts("Cfg2"))
	// Move the hot set two cubes down the chain.
	twoCubes := 2 * hmc.Geometries(hmc.HMC11).SizeBytes
	moved := MustRun(place(twoCubes), thermalOpts("Cfg2"))
	if base.Thermal.Zones[0].MaxC <= moved.Thermal.Zones[0].MaxC {
		t.Errorf("cube 0 with the hot set (%.1fC) not hotter than without (%.1fC)",
			base.Thermal.Zones[0].MaxC, moved.Thermal.Zones[0].MaxC)
	}
	if moved.Thermal.Zones[2].MaxC <= base.Thermal.Zones[2].MaxC {
		t.Errorf("cube 2 with the hot set (%.1fC) not hotter than without (%.1fC)",
			moved.Thermal.Zones[2].MaxC, base.Thermal.Zones[2].MaxC)
	}
}

// TestThermalReportGrid: thermal runs append the feedback grid;
// non-thermal runs keep the recorded shape.
func TestThermalReportGrid(t *testing.T) {
	spec := hotWriteSpec("ddr4")
	hot := MustRun(spec, thermalOpts("Cfg4"))
	rep := hot.Report()
	found := false
	for _, g := range rep.Grids {
		if strings.Contains(g.Title, "Thermal feedback (Cfg4)") {
			found = true
		}
	}
	if !found {
		t.Error("thermal grid missing from thermal run's report")
	}
	plainOpts := thermalOpts("Cfg4")
	plainOpts.Thermal = false
	plain := MustRun(spec, plainOpts)
	for _, g := range plain.Report().Grids {
		if strings.Contains(g.Title, "Thermal") {
			t.Error("thermal grid rendered without opting in")
		}
	}
}

// TestThermalValidation: the thermal option surface is pre-flighted.
func TestThermalValidation(t *testing.T) {
	spec := hotWriteSpec("ddr4")
	badCfg := thermalOpts("Cfg9")
	if _, err := Run(spec, badCfg); err == nil {
		t.Error("unknown cooling config accepted")
	}
	sharded := spec
	sharded.Channels = 4
	sharded.Groups = 2
	if _, err := Run(sharded, thermalOpts("Cfg2")); err == nil {
		t.Error("thermal + sharded mesh accepted")
	}
	// Placement offsets are a generic-driver feature.
	hmcOffset := Spec{
		Name:    "bad-offset",
		Tenants: []Tenant{{Name: "t", Access: Access{OffsetBytes: 128}}},
	}
	if err := hmcOffset.Validate(); err == nil {
		t.Error("placement offset on hmc backend accepted")
	}
	misaligned := Spec{
		Name:    "bad-align",
		Backend: "ddr4",
		Tenants: []Tenant{{Name: "t", Access: Access{OffsetBytes: 100}}},
	}
	if err := misaligned.Validate(); err == nil {
		t.Error("misaligned placement offset accepted")
	}
}
