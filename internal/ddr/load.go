package ddr

import (
	"fmt"

	"hmcsim/internal/sim"
	"hmcsim/internal/stats"
)

// LoadConfig drives a synthetic load against a channel, mirroring the
// GUPS runner's shape so HMC-vs-DDR comparisons use the same
// methodology.
type LoadConfig struct {
	Channel Config
	// Linear selects sequential addressing; otherwise uniform random.
	Linear bool
	// Size is bytes per access (default one burst).
	Size int
	// Window is the controller's outstanding-request budget
	// (default 32 — a typical per-channel scheduler queue).
	Window int
	// Warmup and Measure bound the measurement (defaults 20+200 us).
	Warmup, Measure sim.Duration
	// Seed feeds the address RNG.
	Seed uint64
}

// LoadResult reports a load run.
type LoadResult struct {
	Accesses uint64
	DataGBps float64
	// LatencyNs is the latency record of the measured accesses, the
	// same record a scenario tenant keeps.
	LatencyNs stats.LogHist
	HitRate   float64
}

// String renders a one-line summary.
func (r LoadResult) String() string {
	return fmt.Sprintf("%d accesses: %.2f GB/s, lat avg %.0f ns [%.0f..%.0f], row hits %.0f%%",
		r.Accesses, r.DataGBps, r.LatencyNs.Mean(), r.LatencyNs.Min(), r.LatencyNs.Max(), r.HitRate*100)
}

// RunLoad measures a channel under sustained load.
func RunLoad(cfg LoadConfig) (LoadResult, error) {
	if cfg.Size == 0 {
		cfg.Size = cfg.Channel.BurstBytes
	}
	if cfg.Size == 0 {
		cfg.Size = 64
	}
	if cfg.Window <= 0 {
		cfg.Window = 32
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = 20 * sim.Microsecond
	}
	if cfg.Measure == 0 {
		cfg.Measure = 200 * sim.Microsecond
	}
	eng := sim.NewEngine()
	defer eng.Release()
	ch, err := NewChannel(eng, cfg.Channel)
	if err != nil {
		return LoadResult{}, err
	}
	rng := sim.NewRNG(cfg.Seed)
	var cursor uint64
	next := func() uint64 {
		if cfg.Linear {
			a := cursor
			cursor += uint64(cfg.Size)
			return a % cfg.Channel.ChannelCapacity
		}
		return (rng.Uint64() &^ uint64(cfg.Size-1)) % cfg.Channel.ChannelCapacity
	}

	horizon := cfg.Warmup + cfg.Measure
	var res LoadResult
	measuring := false
	inFlight := 0
	// pump and onDone are each built once and reused for every access:
	// Result carries the submit time, so completions capture nothing.
	var pump func()
	var onDone func(Result)
	onDone = func(r Result) {
		inFlight--
		if measuring {
			res.Accesses++
			res.LatencyNs.Record(int64(r.Latency()))
		}
		pump()
	}
	pump = func() {
		for inFlight < cfg.Window {
			if eng.Now() >= horizon {
				return
			}
			inFlight++
			ch.Access(eng.Now(), next(), cfg.Size, false, onDone)
		}
	}
	eng.Schedule(0, pump)
	eng.RunUntil(cfg.Warmup)
	measuring = true
	// Reset hit-rate accounting to the measured window.
	preHits, preMisses := ch.rowHits, ch.rowMisses
	eng.RunUntil(horizon)
	res.DataGBps = float64(res.Accesses) * float64(cfg.Size) / cfg.Measure.Seconds() / 1e9
	hits := ch.rowHits - preHits
	misses := ch.rowMisses - preMisses
	if hits+misses > 0 {
		res.HitRate = float64(hits) / float64(hits+misses)
	}
	return res, nil
}
