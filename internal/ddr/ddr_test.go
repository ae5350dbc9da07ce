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

// closedPageBurst issues n 64 B reads at t = 0 on a fresh closed-page
// channel, at consecutive bursts or at random bursts, and reports their
// mean latency, the burst's makespan and the channel's row hits.
func closedPageBurst(t *testing.T, linear bool) (mean, makespan sim.Duration, hits uint64) {
	t.Helper()
	const n = 256
	cfg := DefaultConfig()
	cfg.ClosedPage = true
	eng := sim.NewEngine()
	ch := newChannel(t, eng, cfg)
	rng := sim.NewRNG(1)
	var sum sim.Duration
	for i := uint64(0); i < n; i++ {
		addr := i * 64
		if !linear {
			addr = rng.Uint64() % cfg.ChannelCapacity &^ 63
		}
		ch.Access(0, addr, 64, false, func(r Result) { sum += r.Latency() })
	}
	eng.Run()
	hits, _ = rowHits(ch)
	return sum / n, eng.Now(), hits
}

func TestClosedPageEqualizes(t *testing.T) {
	linMean, linSpan, linHits := closedPageBurst(t, true)
	rndMean, rndSpan, rndHits := closedPageBurst(t, false)
	if linHits != 0 || rndHits != 0 {
		t.Fatal("closed-page policy recorded row hits")
	}
	// Closed page removes the row-locality advantage, but with only
	// 16 banks random traffic still pays bank conflicts that a
	// round-robin linear stream avoids — unlike HMC's 256 banks,
	// where the paper measures random and linear as equal.
	if linMean > rndMean {
		t.Fatalf("closed-page linear (%v) slower than random (%v)", linMean, rndMean)
	}
	if linSpan > rndSpan {
		t.Fatalf("closed-page linear burst took %v, random %v", linSpan, rndSpan)
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
