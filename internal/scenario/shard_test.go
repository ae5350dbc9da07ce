package scenario

import (
	"testing"

	"hmcsim/internal/runner"
	"hmcsim/internal/sim"
)

func quickShard() Options {
	return Options{Warmup: 20 * sim.Microsecond, Measure: 60 * sim.Microsecond, Seed: 1, Tail: true}
}

// render folds every rendered form of a result into one comparison
// string, so a determinism check covers the table, CSV and JSON paths
// at once.
func render(r Result) string {
	rep := r.Report()
	js, err := rep.JSON()
	if err != nil {
		panic(err)
	}
	return rep.Table() + "\n###\n" + rep.CSV() + "\n###\n" + js
}

// withWideBudget runs fn with the process core budget inflated so
// shard worker requests are actually granted even on a small host —
// the determinism matrix must exercise the multi-goroutine path, not
// silently clamp to one worker.
func withWideBudget(t *testing.T, fn func()) {
	t.Helper()
	old := runner.Cores
	runner.Cores = runner.NewCoreBudget(16)
	defer func() { runner.Cores = old }()
	fn()
}

// TestShardDeterminism: a sharded spec produces byte-identical reports
// at every worker count — the partition is structural (Spec.Groups),
// Options.Shards only schedules it. Covers all three backends, both
// traffic shapes (independent groups, cross-group remote) and both hmc
// runners: burst traffic moves the hmc boards onto the tenant drivers.
func TestShardDeterminism(t *testing.T) {
	for _, c := range []struct{ label, spec, traffic string }{
		{"chain-16-remote", "chain-16-remote", ""},
		{"ddr4-quad", "ddr4-quad", ""},
		{"hmc-boards", "hmc-boards", ""},
		{"hmc-boards-burst", "hmc-boards", "burst:8/0.5@10us/25us"},
	} {
		t.Run(c.label, func(t *testing.T) {
			spec := mustByName(t, c.spec)
			o := quickShard()
			o.Traffic = c.traffic
			o.Shards = 1
			base := render(MustRun(spec, o))
			withWideBudget(t, func() {
				for _, shards := range []int{2, 8} {
					o.Shards = shards
					if got := render(MustRun(spec, o)); got != base {
						t.Errorf("%s: Shards=%d diverged from Shards=1:\n%s", c.label, shards, got)
					}
				}
			})
		})
	}
}

// TestShardRemoteTraffic: remote accesses actually cross the exchange
// — the remote spec's tail stretches past the local-only spec's
// (each crossing is flush-aligned to the lookahead window) while the
// request counts stay in the same regime.
func TestShardRemoteTraffic(t *testing.T) {
	o := quickShard()
	local := MustRun(mustByName(t, "chain-16"), o)
	remote := MustRun(mustByName(t, "chain-16-remote"), o)
	if lm, rm := local.Total.ReadHistNs.Max(), remote.Total.ReadHistNs.Max(); rm <= lm {
		t.Errorf("remote max read latency %.0f ns not above local-only %.0f ns", rm, lm)
	}
	if remote.Total.Reads == 0 || local.Total.Reads == 0 {
		t.Fatal("no traffic measured")
	}
}
