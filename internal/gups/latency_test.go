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
// silently dropped — the write record carries exactly one entry per
// completed measured write.
func TestWriteLatencyRecorded(t *testing.T) {
	res, err := Run(latencyCfg(WriteOnly))
	if err != nil {
		t.Fatal(err)
	}
	if res.Writes == 0 {
		t.Fatal("write-only run completed no writes")
	}
	if res.WriteHistNs.N() != res.Writes {
		t.Errorf("write latency samples %d != writes %d", res.WriteHistNs.N(), res.Writes)
	}
	if res.WriteHistNs.Mean() <= 0 {
		t.Errorf("write latency mean %v not positive", res.WriteHistNs.Mean())
	}
	if res.ReadHistNs.N() != 0 {
		t.Errorf("write-only run recorded %d read latencies", res.ReadHistNs.N())
	}
}

// TestReadHistogramMatchesSummary: one record entry per measured read
// (so warmup completions are excluded by construction), and the
// bucketed tail stays consistent with the record's exact extremes,
// which come from the picosecond values rather than the buckets.
func TestReadHistogramMatchesSummary(t *testing.T) {
	res, err := Run(latencyCfg(ReadOnly))
	if err != nil {
		t.Fatal(err)
	}
	if res.Reads == 0 {
		t.Fatal("read-only run completed no reads")
	}
	h := res.ReadHistNs
	if h.N() != res.Reads {
		t.Errorf("record holds %d samples, want %d (warmup must be excluded)", h.N(), res.Reads)
	}
	// Bucketed values sit within one bucket width of the exact
	// extremes (plus 1 ns for the truncation to whole nanoseconds).
	minOK := h.Min()/(1+1.0/32) - 1
	maxOK := h.Max()*(1+1.0/32) + 1
	lo, hi := h.Percentile(0), h.Percentile(100)
	if lo < minOK || lo > h.Min()*(1+1.0/32)+1 {
		t.Errorf("hist p0 %v inconsistent with exact min %v", lo, h.Min())
	}
	if hi > maxOK || hi < h.Max()/(1+1.0/32)-1 {
		t.Errorf("hist p100 %v inconsistent with exact max %v", hi, h.Max())
	}
	for _, p := range []float64{50, 90, 99, 99.9} {
		if v := h.Percentile(p); v < minOK || v > maxOK {
			t.Errorf("p%g = %v outside [min %v, max %v]", p, v, h.Min(), h.Max())
		}
	}
	if h.Mean() < h.Min() || h.Mean() > h.Max() {
		t.Errorf("mean %v outside [min %v, max %v]", h.Mean(), h.Min(), h.Max())
	}
}

// TestMonitorReset: the warmup boundary clears counters and latency
// records in place, preserving the measuring gate and the record
// storage (no allocation at the boundary).
func TestMonitorReset(t *testing.T) {
	m := NewMonitor()
	m.measuring = true
	m.Record(false, mem.Result{Deliver: 100 * sim.Nanosecond}, 144, 128)
	m.Record(true, mem.Result{Deliver: 50 * sim.Nanosecond}, 160, 128)
	if m.Reads != 1 || m.Writes != 1 || m.ReadHistNs.N() != 1 || m.WriteHistNs.N() != 1 {
		t.Fatalf("two completions booked as %d reads, %d writes, records %d/%d",
			m.Reads, m.Writes, m.ReadHistNs.N(), m.WriteHistNs.N())
	}
	rh, wh := m.ReadHistNs, m.WriteHistNs
	m.Reset()
	if !m.measuring {
		t.Error("Reset dropped the measuring gate")
	}
	if m.Reads != 0 || m.Writes != 0 || m.DataBytes != 0 || m.RawBytes != 0 {
		t.Error("Reset left counters populated")
	}
	if m.ReadHistNs != rh || m.WriteHistNs != wh {
		t.Error("Reset reallocated histogram storage")
	}
	if m.ReadHistNs.N() != 0 || m.WriteHistNs.N() != 0 || m.ReadHistNs.Max() != 0 || m.WriteHistNs.Max() != 0 {
		t.Error("Reset left record contents")
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

// pinnedCompletion runs one request alone through a fresh rig's
// mem.HMC port, submitted at start, and returns its completion.
func pinnedCompletion(t *testing.T, start sim.Time, port int, req mem.Request) mem.Result {
	t.Helper()
	rig, err := BuildRig(Config{Ports: 1})
	if err != nil {
		t.Fatal(err)
	}
	rig.Eng.RunUntil(start)
	var got mem.Result
	rig.Backend.Port(port).Submit(req, func(r mem.Result) { got = r })
	rig.Eng.Run()
	return got
}

// TestMonitorMergeAccumulatesTelemetry: merging port monitors into a
// zero-value accumulator (as gups.Run and the scenario engine do)
// carries the counters and both latency records across with exact
// moments. The completions are the isolated 128 B read and 64 B write
// whose timelines internal/fpga's TestRequestTimelinePinned pins:
// 740 272 ps and 672 434 ps from port submission to port delivery.
func TestMonitorMergeAccumulatesTelemetry(t *testing.T) {
	rd := pinnedCompletion(t, 1_000_000, 0, mem.Request{Addr: 0x1_2345_6780, Size: 128})
	wr := pinnedCompletion(t, 2_500_123, 3, mem.Request{Addr: 0x40_0c80, Size: 64, Write: true})
	if rd.Latency() != 740_272 || wr.Latency() != 672_434 {
		t.Fatalf("pinned round trips %d / %d ps, want 740272 / 672434", rd.Latency(), wr.Latency())
	}
	a := NewMonitor()
	a.Record(false, rd, 144, 128)
	a.Record(false, mem.Result{Submit: rd.Submit, Deliver: rd.Submit + 2*rd.Latency()}, 144, 128)
	a.Record(true, wr, 80, 64)

	// Merging the same value twice shares a's records, which Merge
	// must treat as read-only sources.
	var acc Monitor // zero value: records allocated on demand
	acc.Merge(a)
	acc.Merge(a)
	if acc.Reads != 4 || acc.Writes != 2 || acc.RawBytes != 2*(144+144+80) || acc.DataBytes != 2*(128+128+64) {
		t.Fatalf("counter merge: %d reads, %d writes, %d raw B, %d data B",
			acc.Reads, acc.Writes, acc.RawBytes, acc.DataBytes)
	}
	r, w := acc.ReadHistNs, acc.WriteHistNs
	if r.N() != 4 || w.N() != 2 {
		t.Fatalf("record merge: %d read, %d write samples", r.N(), w.N())
	}
	if r.Mean() != 1110.408 || r.Min() != 740.272 || r.Max() != 1480.544 {
		t.Errorf("read record: mean %v min %v max %v, want 1110.408 740.272 1480.544", r.Mean(), r.Min(), r.Max())
	}
	if w.Mean() != 672.434 || w.Min() != 672.434 || w.Max() != 672.434 {
		t.Errorf("write record: mean %v min %v max %v, want 672.434 each", w.Mean(), w.Min(), w.Max())
	}
	if a.ReadHistNs.N() != 2 || a.WriteHistNs.N() != 1 {
		t.Error("Merge modified its source")
	}
}

// BenchmarkMonitorRecord times the per-completion telemetry: one
// Monitor.Record per op, alternating reads and writes over a fixed
// table of round trips from 100 ns to 20 µs. CI gates it at 0
// allocs/op.
func BenchmarkMonitorRecord(b *testing.B) {
	lat := make([]mem.Result, 4096)
	rng := sim.NewRNG(7)
	for i := range lat {
		lat[i].Deliver = 100*sim.Nanosecond + sim.Time(rng.Intn(20_000_000))
	}
	m := NewMonitor()
	defer m.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Record(i&1 == 1, lat[i&4095], 160, 128)
	}
}
