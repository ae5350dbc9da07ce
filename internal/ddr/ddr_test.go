package ddr

import (
	"testing"

	"hmcsim/internal/sim"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.Banks = 15
	if err := bad.Validate(); err == nil {
		t.Error("indivisible banks accepted")
	}
	bad = DefaultConfig()
	bad.PageBytes = 100
	if err := bad.Validate(); err == nil {
		t.Error("unaligned page accepted")
	}
	bad = DefaultConfig()
	bad.ChannelCapacity = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero capacity accepted")
	}
}

func newChannel(t *testing.T, eng *sim.Engine, cfg Config) *Channel {
	t.Helper()
	ch, err := NewChannel(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// rowHits reports the channel's open-row hit and miss counts.
func rowHits(ch *Channel) (hits, misses uint64) {
	_, hits, misses, _ = ch.Stats()
	return hits, misses
}

func TestSingleAccessLatency(t *testing.T) {
	eng := sim.NewEngine()
	ch := newChannel(t, eng, DefaultConfig())
	var res Result
	ch.Access(0, 0, 64, false, func(r Result) { res = r })
	eng.Run()
	lat := res.Latency().Nanoseconds()
	// Empty bank: front end + RCD + CL + burst + back end ~ 60-70 ns.
	if lat < 45 || lat > 90 {
		t.Fatalf("cold access latency = %.1f ns, want ~60", lat)
	}
	if hits, misses := rowHits(ch); hits != 0 || misses != 1 {
		t.Fatalf("first access: %d hits, %d misses, want one miss", hits, misses)
	}
}

func TestRowHitFasterThanMiss(t *testing.T) {
	eng := sim.NewEngine()
	ch := newChannel(t, eng, DefaultConfig())
	var second, third Result
	ch.Access(0, 0, 64, false, func(Result) {})
	eng.Run()
	// Same row: the burst offset within one row of the same bank is
	// banks*burst bytes apart under low-order interleave.
	stride := uint64(DefaultConfig().Banks * DefaultConfig().BurstBytes)
	ch.Access(eng.Now(), stride*2, 64, false, func(r Result) { second = r })
	eng.Run()
	if hits, _ := rowHits(ch); hits != 1 {
		t.Fatal("same-row access missed")
	}
	// Different row, same bank.
	rowSpan := stride * uint64(DefaultConfig().PageBytes/DefaultConfig().BurstBytes)
	ch.Access(eng.Now(), rowSpan*3, 64, false, func(r Result) { third = r })
	eng.Run()
	if hits, misses := rowHits(ch); hits != 1 || misses != 2 {
		t.Fatal("cross-row access hit")
	}
	if second.Latency() >= third.Latency() {
		t.Fatalf("row hit (%v) not faster than conflict (%v)", second.Latency(), third.Latency())
	}
}

func TestClosedPageEqualizes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ClosedPage = true
	lin, err := RunLoad(LoadConfig{Channel: cfg, Linear: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := RunLoad(LoadConfig{Channel: cfg, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if lin.HitRate != 0 || rnd.HitRate != 0 {
		t.Fatal("closed-page policy recorded row hits")
	}
	// Closed page removes the row-locality advantage, but with only
	// 16 banks random traffic still pays bank conflicts that a
	// round-robin linear stream avoids — unlike HMC's 256 banks,
	// where the paper measures random and linear as equal.
	if lin.LatencyNs.Mean() > rnd.LatencyNs.Mean() {
		t.Fatalf("closed-page linear (%.0f ns) slower than random (%.0f ns)",
			lin.LatencyNs.Mean(), rnd.LatencyNs.Mean())
	}
	if lin.DataGBps < rnd.DataGBps {
		t.Fatalf("closed-page linear (%.2f GB/s) below random (%.2f)", lin.DataGBps, rnd.DataGBps)
	}
}

// TestOpenPageLocalityGap: with the open-page default, a linear
// stream enjoys high hit rates and beats random — the behaviour HMC's
// closed-page design gives up (Section II-C / IV-D).
func TestOpenPageLocalityGap(t *testing.T) {
	lin, err := RunLoad(LoadConfig{Channel: DefaultConfig(), Linear: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := RunLoad(LoadConfig{Channel: DefaultConfig(), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if lin.HitRate < 0.8 {
		t.Fatalf("linear hit rate %.2f, want high", lin.HitRate)
	}
	if rnd.HitRate > 0.3 {
		t.Fatalf("random hit rate %.2f, want low", rnd.HitRate)
	}
	if lin.DataGBps <= rnd.DataGBps {
		t.Fatalf("linear (%.2f GB/s) not above random (%.2f)", lin.DataGBps, rnd.DataGBps)
	}
}

// TestStreamNearPeak: a linear stream approaches the 19.2 GB/s bus
// peak.
func TestStreamNearPeak(t *testing.T) {
	res, err := RunLoad(LoadConfig{Channel: DefaultConfig(), Linear: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.DataGBps < 12 || res.DataGBps > 19.3 {
		t.Fatalf("stream bandwidth %.2f GB/s, want near peak 19.2", res.DataGBps)
	}
}

// TestDDRLatencyVsHMC pins the paper's Section IV-E2 comparison: the
// HMC's in-device latency is about twice a typical closed-page DRAM
// access.
func TestDDRLatencyVsHMC(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ClosedPage = true
	eng := sim.NewEngine()
	ch := newChannel(t, eng, cfg)
	var res Result
	ch.Access(0, 0, 64, false, func(r Result) { res = r })
	eng.Run()
	ddrNs := res.Latency().Nanoseconds()
	// The calibrated HMC spends ~125-150 ns inside the device at low
	// load (EXPERIMENTS.md, Figure 14): about 2x this DDR access.
	ratio := 147.0 / ddrNs
	if ratio < 1.5 || ratio > 3.0 {
		t.Fatalf("HMC/DDR latency ratio = %.2f (DDR %.0f ns), want ~2", ratio, ddrNs)
	}
}

func TestChannelErrors(t *testing.T) {
	if _, err := NewChannel(nil, DefaultConfig()); err == nil {
		t.Error("nil engine accepted")
	}
	bad := DefaultConfig()
	bad.Banks = 0
	if _, err := NewChannel(sim.NewEngine(), bad); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestStatsAccounting(t *testing.T) {
	eng := sim.NewEngine()
	ch := newChannel(t, eng, DefaultConfig())
	for i := 0; i < 10; i++ {
		ch.Access(eng.Now(), uint64(i)*64, 64, i%2 == 0, func(Result) {})
	}
	eng.Run()
	acc, hits, misses, bytes := ch.Stats()
	if acc != 10 || hits+misses != 10 || bytes != 640 {
		t.Fatalf("stats = %d/%d/%d/%d", acc, hits, misses, bytes)
	}
}

func TestLoadDeterminism(t *testing.T) {
	run := func() LoadResult {
		r, err := RunLoad(LoadConfig{Channel: DefaultConfig(), Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Accesses != b.Accesses || a.DataGBps != b.DataGBps {
		t.Fatal("same-seed DDR loads diverged")
	}
}
