package ddr_test

import (
	"testing"

	"hmcsim/internal/scenario"
	"hmcsim/internal/sim"
)

// runLoad measures one open-page DDR4 channel under sustained 64 B
// reads, the load ext-ddr runs: kind "linear" or "uniform", over a
// 20 us warmup and a 200 us measurement.
func runLoad(t *testing.T, kind string, seed uint64) scenario.Result {
	t.Helper()
	res, err := scenario.Run(scenario.Spec{
		Name: "ddr-" + kind, Backend: "ddr4",
		Tenants: []scenario.Tenant{{Name: "load", Size: 64, Access: scenario.Access{Kind: kind}}},
	}, scenario.Options{Warmup: 20 * sim.Microsecond, Measure: 200 * sim.Microsecond, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestOpenPageLocalityGap: with the open-page default, a linear
// stream enjoys high hit rates and beats random — the behaviour HMC's
// closed-page design gives up (Section II-C / IV-D).
func TestOpenPageLocalityGap(t *testing.T) {
	lin, rnd := runLoad(t, "linear", 2), runLoad(t, "uniform", 2)
	if lin.RowHitRate < 0.8 {
		t.Fatalf("linear hit rate %.2f, want high", lin.RowHitRate)
	}
	if rnd.RowHitRate > 0.3 {
		t.Fatalf("random hit rate %.2f, want low", rnd.RowHitRate)
	}
	if lin.Total.DataGBps <= rnd.Total.DataGBps {
		t.Fatalf("linear (%.2f GB/s) not above random (%.2f)", lin.Total.DataGBps, rnd.Total.DataGBps)
	}
}

// TestStreamNearPeak: a linear stream approaches the 19.2 GB/s bus
// peak.
func TestStreamNearPeak(t *testing.T) {
	if g := runLoad(t, "linear", 3).Total.DataGBps; g < 12 || g > 19.3 {
		t.Fatalf("stream bandwidth %.2f GB/s, want near peak 19.2", g)
	}
}

func TestLoadDeterminism(t *testing.T) {
	a, b := runLoad(t, "uniform", 9), runLoad(t, "uniform", 9)
	if a.Total.Reads != b.Total.Reads || a.Total.DataGBps != b.Total.DataGBps {
		t.Fatal("same-seed DDR loads diverged")
	}
}
