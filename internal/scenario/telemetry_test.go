package scenario

import (
	"strings"
	"testing"

	"hmcsim/internal/sim"
	"hmcsim/internal/stats"
)

// telemetryOpts keeps the telemetry tests fast but with a real warmup
// window, so the warmup/measurement split is exercised.
func telemetryOpts() Options {
	return Options{Warmup: 15 * sim.Microsecond, Measure: 50 * sim.Microsecond, Seed: 5}
}

// rwSpec is a read/write mix on the given backend, so both latency
// directions are populated.
func rwSpec(backend string) Spec {
	s := Spec{
		Name:    "telemetry-" + backend,
		Backend: backend,
		Tenants: []Tenant{{Name: "mix", Ports: 2, Mix: "mix", ReadFraction: 0.7}},
	}
	if backend == "chain" {
		s.Topology = "chain"
		s.Cubes = 2
	}
	return s
}

// TestTelemetryAllBackends: on every backend, read and write round
// trips land in the latency records, with exactly one sample per
// measured completion — which also proves warmup completions are
// excluded, since Reads/Writes reset at the boundary — and exact
// moments no faster than the backend's MinLatency floor.
func TestTelemetryAllBackends(t *testing.T) {
	for _, backend := range []string{"hmc", "ddr4", "chain"} {
		t.Run(backend, func(t *testing.T) {
			res, err := Run(rwSpec(backend), telemetryOpts())
			if err != nil {
				t.Fatal(err)
			}
			tot := res.Total
			if tot.Reads == 0 || tot.Writes == 0 {
				t.Fatalf("mix tenant completed %d reads / %d writes", tot.Reads, tot.Writes)
			}
			if tot.ReadHistNs.N() != tot.Reads {
				t.Errorf("read telemetry: %d samples, want %d", tot.ReadHistNs.N(), tot.Reads)
			}
			if tot.WriteHistNs.N() != tot.Writes {
				t.Errorf("write telemetry: %d samples, want %d", tot.WriteHistNs.N(), tot.Writes)
			}
			backends, err := buildBackends(rwSpec(backend).withDefaults(), telemetryOpts().withDefaults(), sim.NewMesh(1))
			if err != nil {
				t.Fatal(err)
			}
			floor := backends[0].MinLatency().Nanoseconds()
			for dir, h := range map[string]*stats.LogHist{"read": tot.ReadHistNs, "write": tot.WriteHistNs} {
				if h.Min() < floor || h.Mean() < h.Min() || h.Max() < h.Mean() {
					t.Errorf("%s record: min %v mean %v max %v, want floor %v <= min <= mean <= max",
						dir, h.Min(), h.Mean(), h.Max(), floor)
				}
			}
			for _, ts := range res.Tenants {
				if ts.ReadHistNs.N() != ts.Reads {
					t.Errorf("tenant %s: per-tenant hist %d != reads %d", ts.Name, ts.ReadHistNs.N(), ts.Reads)
				}
			}
		})
	}
}

// TestTenantHistogramsSumToTotal: merging is exact — the per-tenant
// histograms of a multi-tenant run fold to the total's counts.
func TestTenantHistogramsSumToTotal(t *testing.T) {
	spec := Spec{
		Name: "telemetry-multi",
		Tenants: []Tenant{
			{Name: "readers", Ports: 2},
			{Name: "writers", Ports: 2, Mix: "wo"},
		},
	}
	res, err := Run(spec, telemetryOpts())
	if err != nil {
		t.Fatal(err)
	}
	var reads, writes uint64
	for _, ts := range res.Tenants {
		if ts.ReadHistNs != nil {
			reads += ts.ReadHistNs.N()
		}
		if ts.WriteHistNs != nil {
			writes += ts.WriteHistNs.N()
		}
	}
	if reads != res.Total.ReadHistNs.N() {
		t.Errorf("tenant read hists sum %d != total %d", reads, res.Total.ReadHistNs.N())
	}
	if writes != res.Total.WriteHistNs.N() {
		t.Errorf("tenant write hists sum %d != total %d", writes, res.Total.WriteHistNs.N())
	}
	if res.Total.WriteHistNs.N() != res.Total.Writes {
		t.Errorf("total write record %d != writes %d", res.Total.WriteHistNs.N(), res.Total.Writes)
	}
}

// TestTailGateKeepsReportStable: without Options.Tail the rendered
// report is byte-identical to the pre-telemetry shape (no new grid,
// no new note); with it, the tail grid and its note are appended and
// the existing content is untouched — the property that lets every
// recorded golden stay byte-identical while the CLI shows percentiles.
func TestTailGateKeepsReportStable(t *testing.T) {
	spec := rwSpec("hmc")
	plain, err := Run(spec, telemetryOpts())
	if err != nil {
		t.Fatal(err)
	}
	o := telemetryOpts()
	o.Tail = true
	tailed, err := Run(spec, o)
	if err != nil {
		t.Fatal(err)
	}
	pt, tt := plain.Report().Table(), tailed.Report().Table()
	if strings.Contains(pt, "Tail latency percentiles") {
		t.Error("tail grid rendered without opting in")
	}
	if !strings.Contains(tt, "Tail latency percentiles") {
		t.Error("Tail option did not render the percentile grid")
	}
	if !strings.Contains(tt, "p99.9") {
		t.Error("tail grid missing p99.9 column")
	}
	// The tailed report must extend, not alter: same grid content up
	// to the appended section, same leading note line.
	pr, tr := plain.Report(), tailed.Report()
	if len(tr.Grids) != len(pr.Grids)+1 || tr.Grids[0].Table() != pr.Grids[0].Table() {
		t.Error("tail grid altered the base grid instead of appending")
	}
	if len(tr.Notes) != len(pr.Notes)+1 || tr.Notes[0] != pr.Notes[0] {
		t.Error("tail note altered the base notes instead of appending")
	}
	// Both directions of the mix tenant appear.
	if !strings.Contains(tt, "read") || !strings.Contains(tt, "write") {
		t.Error("tail grid missing a direction row")
	}
}
