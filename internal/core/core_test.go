package core

import (
	"testing"

	"hmcsim/internal/experiments"
	"hmcsim/internal/gups"
	"hmcsim/internal/workloads"
)

func quickChar() *Characterizer { return New(experiments.Quick()) }

func TestMeasureReadOnly(t *testing.T) {
	c := quickChar()
	m, err := c.Measure(Workload{Type: gups.ReadOnly})
	if err != nil {
		t.Fatal(err)
	}
	if m.Perf.RawGBps < 15 || m.Perf.RawGBps > 25 {
		t.Fatalf("ro bandwidth = %.2f GB/s out of band", m.Perf.RawGBps)
	}
	if len(m.Thermal) != 4 {
		t.Fatalf("%d thermal points, want 4", len(m.Thermal))
	}
	// Read-only survives every cooling configuration.
	if got := m.SafeConfigs(); len(got) != 4 {
		t.Fatalf("ro safe configs = %v, want all", got)
	}
	if m.ReadLatency().N() == 0 {
		t.Fatal("no latency samples")
	}
	for _, tp := range m.Thermal {
		if tp.JunctionC <= tp.SurfaceC {
			t.Fatal("junction not hotter than surface")
		}
		if tp.MachineW < 100 {
			t.Fatal("machine power below idle")
		}
	}
}

func TestMeasureWriteOnlyThermalLimits(t *testing.T) {
	c := quickChar()
	m, err := c.Measure(Workload{Type: gups.WriteOnly})
	if err != nil {
		t.Fatal(err)
	}
	safe := m.SafeConfigs()
	if len(safe) != 2 || safe[0] != "Cfg1" || safe[1] != "Cfg2" {
		t.Fatalf("wo safe configs = %v, want [Cfg1 Cfg2]", safe)
	}
}

func TestMeasurePatternRestriction(t *testing.T) {
	c := quickChar()
	full, err := c.Measure(Workload{Type: gups.ReadOnly})
	if err != nil {
		t.Fatal(err)
	}
	vault, err := c.Measure(Workload{Type: gups.ReadOnly, Pattern: workloads.VaultPattern(1)})
	if err != nil {
		t.Fatal(err)
	}
	if vault.Perf.RawGBps >= full.Perf.RawGBps*0.8 {
		t.Fatalf("single-vault (%.2f) not limited vs full (%.2f)", vault.Perf.RawGBps, full.Perf.RawGBps)
	}
}

func TestMeasureValidation(t *testing.T) {
	c := quickChar()
	if _, err := c.Measure(Workload{Size: 20}); err == nil {
		t.Error("invalid size accepted")
	}
	if _, err := c.Measure(Workload{Ports: 12}); err == nil {
		t.Error("invalid ports accepted")
	}
}

func TestMeasureStream(t *testing.T) {
	c := quickChar()
	res, err := c.MeasureStream(8, 64, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified || res.LatencyNs.N() != 8 {
		t.Fatalf("stream result %+v", res)
	}
}

func TestInsights(t *testing.T) {
	ins := Insights()
	if len(ins) != 6 {
		t.Fatalf("%d insights, want 6", len(ins))
	}
	for i, in := range ins {
		if in.N != i+1 || in.Text == "" || in.Experiment == "" {
			t.Fatalf("bad insight %+v", in)
		}
		if _, err := experiments.ByID(in.Experiment); err != nil {
			t.Errorf("insight %d references unknown experiment %q", in.N, in.Experiment)
		}
	}
}
