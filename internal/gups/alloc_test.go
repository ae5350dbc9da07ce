//go:build !race

package gups

import (
	"runtime"
	"testing"

	"hmcsim/internal/sim"
)

// TestRunAllocationBound pins the storage reuse across simulation
// cells: a warm quick-fidelity gups.Run cell (nine ports, 128 B random
// reads, 30 µs warmup + 100 µs measured) adopts the engine's wheel and
// the port monitors' histograms that the previous cell released, so
// what it still allocates is the device and controller models and the
// result's own histograms. Measured at 219 912 bytes per cell (Go
// 1.24, linux/amd64); the bound of 300 000 bytes leaves a 36 % margin.
// Without the reuse the same cell allocated 1 163 144 bytes. It runs
// at GOMAXPROCS(1) so that the pools' per-P caches are hit, and takes
// the smallest of three cells, so a garbage collection that empties
// the pools between two cells cannot fail it. The race detector's pool
// drops items at random, hence the build tag.
func TestRunAllocationBound(t *testing.T) {
	const boundBytes = 300_000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := Config{Type: ReadOnly, Warmup: 30 * sim.Microsecond, Measure: 100 * sim.Microsecond, Seed: 1}
	MustRun(cfg) // warm the pools
	best := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		MustRun(cfg)
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("warm quick gups.Run cell: %d bytes allocated", best)
	if best > boundBytes {
		t.Fatalf("a warm quick gups.Run cell allocated %d bytes, bound %d", best, boundBytes)
	}
}
