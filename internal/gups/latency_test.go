package gups

import (
	"testing"

	"hmcsim/internal/mem"
	"hmcsim/internal/sim"
)

// latencyCfg is a short window with real warmup, so the tests below
// exercise the warmup/measurement split the monitors implement.
func latencyCfg(ty ReqType) Config {
	return Config{
		Type:    ty,
		Ports:   2,
		Warmup:  20 * sim.Microsecond,
		Measure: 60 * sim.Microsecond,
		Seed:    3,
	}
}

// TestWriteLatencyRecorded: write round trips are measured, not
// silently dropped — the summary and histogram both carry exactly one
// entry per completed measured write.
func TestWriteLatencyRecorded(t *testing.T) {
	res, err := Run(latencyCfg(WriteOnly))
	if err != nil {
		t.Fatal(err)
	}
	if res.Writes == 0 {
		t.Fatal("write-only run completed no writes")
	}
	if res.WriteLatencyNs.N() != res.Writes {
		t.Errorf("write latency samples %d != writes %d", res.WriteLatencyNs.N(), res.Writes)
	}
	if res.WriteHistNs.N() != res.Writes {
		t.Errorf("write histogram samples %d != writes %d", res.WriteHistNs.N(), res.Writes)
	}
	if res.WriteLatencyNs.Mean() <= 0 {
		t.Errorf("write latency mean %v not positive", res.WriteLatencyNs.Mean())
	}
	if res.ReadLatencyNs.N() != 0 {
		t.Errorf("write-only run recorded %d read latencies", res.ReadLatencyNs.N())
	}
}

// TestReadHistogramMatchesSummary: one histogram entry per measured
// read (so warmup completions are excluded by construction), and the
// bucketed tail stays consistent with the exact summary extremes.
func TestReadHistogramMatchesSummary(t *testing.T) {
	res, err := Run(latencyCfg(ReadOnly))
	if err != nil {
		t.Fatal(err)
	}
	if res.Reads == 0 {
		t.Fatal("read-only run completed no reads")
	}
	if res.ReadHistNs.N() != res.Reads || res.ReadLatencyNs.N() != res.Reads {
		t.Errorf("hist %d / summary %d samples, want %d (warmup must be excluded from both)",
			res.ReadHistNs.N(), res.ReadLatencyNs.N(), res.Reads)
	}
	// Bucketed values sit within one bucket width of the exact
	// extremes (plus 1 ns for the float->int truncation at record).
	minOK := res.ReadLatencyNs.Min()/(1+1.0/32) - 1
	maxOK := res.ReadLatencyNs.Max()*(1+1.0/32) + 1
	lo, hi := res.ReadHistNs.Percentile(0), res.ReadHistNs.Percentile(100)
	if lo < minOK || lo > res.ReadLatencyNs.Min()*(1+1.0/32)+1 {
		t.Errorf("hist p0 %v inconsistent with exact min %v", lo, res.ReadLatencyNs.Min())
	}
	if hi > maxOK || hi < res.ReadLatencyNs.Max()/(1+1.0/32)-1 {
		t.Errorf("hist p100 %v inconsistent with exact max %v", hi, res.ReadLatencyNs.Max())
	}
	for _, p := range []float64{50, 90, 99, 99.9} {
		if v := res.ReadHistNs.Percentile(p); v < minOK || v > maxOK {
			t.Errorf("p%g = %v outside [min %v, max %v]", p, v, res.ReadLatencyNs.Min(), res.ReadLatencyNs.Max())
		}
	}
}

// TestMonitorReset: the warmup boundary clears counters, summaries
// and histogram contents in place, preserving the measuring gate and
// the histogram storage (no allocation at the boundary).
func TestMonitorReset(t *testing.T) {
	m := NewMonitor()
	m.measuring = true
	m.Reads, m.DataBytes = 7, 896
	m.ReadLatencyNs.Add(100)
	m.WriteLatencyNs.Add(50)
	m.ReadHistNs.Record(100)
	m.WriteHistNs.Record(50)
	rh, wh := m.ReadHistNs, m.WriteHistNs
	m.Reset()
	if !m.measuring {
		t.Error("Reset dropped the measuring gate")
	}
	if m.Reads != 0 || m.DataBytes != 0 || m.ReadLatencyNs.N() != 0 || m.WriteLatencyNs.N() != 0 {
		t.Error("Reset left counters or summaries populated")
	}
	if m.ReadHistNs != rh || m.WriteHistNs != wh {
		t.Error("Reset reallocated histogram storage")
	}
	if m.ReadHistNs.N() != 0 || m.WriteHistNs.N() != 0 {
		t.Error("Reset left histogram contents")
	}
}

// TestMonitorRelease: a released monitor holds no histogram, a port
// that hands its monitor over keeps none, and a monitor drawn from the
// pool afterwards starts empty even when it reuses released storage.
func TestMonitorRelease(t *testing.T) {
	rig, err := BuildRig(Config{Ports: 1, Warmup: sim.Microsecond, Measure: sim.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	p := rig.Ports[0]
	p.mon.measuring = true
	r := mem.Result{Deliver: 100 * sim.Nanosecond}
	p.mon.Record(false, r, 144, 128)
	p.mon.Record(true, r, 160, 128)
	m := p.TakeMonitor()
	if p.mon.ReadHistNs != nil || p.mon.WriteHistNs != nil {
		t.Error("the port kept a histogram it handed over")
	}
	if m.Reads != 1 || m.Writes != 1 || m.ReadHistNs.N() != 1 || m.WriteHistNs.N() != 1 {
		t.Fatalf("TakeMonitor lost measurements: %+v", m)
	}
	m.Release()
	if m.ReadHistNs != nil || m.WriteHistNs != nil {
		t.Error("a released monitor still holds a histogram")
	}
	m.Release() // releasing twice is harmless
	for i := 0; i < 4; i++ {
		n := NewMonitor()
		if n.ReadHistNs.N() != 0 || n.WriteHistNs.N() != 0 || n.ReadHistNs == n.WriteHistNs {
			t.Fatal("NewMonitor handed out a used or shared histogram")
		}
	}
}

// TestMonitorMergeAccumulatesTelemetry: merging port monitors into a
// zero-value accumulator (as gups.Run and the scenario engine do)
// carries the write summaries and both histograms across.
func TestMonitorMergeAccumulatesTelemetry(t *testing.T) {
	a := NewMonitor()
	a.Reads, a.Writes = 2, 1
	a.ReadLatencyNs.Add(100)
	a.ReadLatencyNs.Add(200)
	a.WriteLatencyNs.Add(70)
	a.ReadHistNs.Record(100)
	a.ReadHistNs.Record(200)
	a.WriteHistNs.Record(70)

	// Merging the same value twice shares a's histograms, which merge
	// must treat as read-only sources.
	var acc Monitor // zero value: histograms allocated on demand
	acc.merge(a)
	acc.merge(a)
	if acc.Reads != 4 || acc.Writes != 2 {
		t.Fatalf("counter merge: %d reads, %d writes", acc.Reads, acc.Writes)
	}
	if acc.ReadHistNs.N() != 4 || acc.WriteHistNs.N() != 2 {
		t.Errorf("histogram merge: %d read, %d write samples", acc.ReadHistNs.N(), acc.WriteHistNs.N())
	}
	if acc.WriteLatencyNs.N() != 2 || acc.WriteLatencyNs.Mean() != 70 {
		t.Errorf("write summary merge: n=%d mean=%v", acc.WriteLatencyNs.N(), acc.WriteLatencyNs.Mean())
	}
}
