package trace

import (
	"testing"
)

func TestReplayStream(t *testing.T) {
	gen := &StrideGen{Stride: 128, Size: 128, Count: 4000}
	res, err := Replay(gen, ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses != 4000 {
		t.Fatalf("accesses = %d", res.Accesses)
	}
	// A pipelined stream (window 64) achieves multi-GB/s data rates.
	if res.DataGBps < 2 {
		t.Fatalf("stream data rate %.2f GB/s too low", res.DataGBps)
	}
	if res.LatencyNs.N() != 4000 {
		t.Fatalf("latency samples %d", res.LatencyNs.N())
	}
}

// TestReplayPointerChaseLatencyBound: a dependent chain runs at
// ~1/latency — the paper's warning that packet-switched interfaces
// roughly double DRAM access latency bites hardest here.
func TestReplayPointerChaseLatencyBound(t *testing.T) {
	const n = 300
	gen := NewChaseGen(9, 64, n, 1<<32-1)
	res, err := Replay(gen, ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses != n {
		t.Fatalf("accesses = %d", res.Accesses)
	}
	// Each dereference costs about one low-load round trip (~700 ns).
	perDeref := res.Elapsed.Nanoseconds() / float64(n)
	if perDeref < 600 || perDeref > 900 {
		t.Fatalf("per-dereference time %.0f ns, want ~700", perDeref)
	}
	// Throughput is latency-bound: under 2M derefs/s.
	if res.DerefPerSec > 2e6 {
		t.Fatalf("chase ran at %.1fM derefs/s; not latency-bound", res.DerefPerSec/1e6)
	}
}

// TestReplayWindowEffect: a wider window raises streaming throughput.
func TestReplayWindowEffect(t *testing.T) {
	run := func(window int) float64 {
		gen := &StrideGen{Stride: 128, Size: 128, Count: 3000}
		res, err := Replay(gen, ReplayConfig{Window: window})
		if err != nil {
			t.Fatal(err)
		}
		return res.DataGBps
	}
	narrow, wide := run(2), run(64)
	if wide <= narrow*1.5 {
		t.Fatalf("window 64 (%.2f GB/s) not much faster than window 2 (%.2f)", wide, narrow)
	}
}

// TestReplayZipfHotspot: heavy skew concentrates traffic on few banks
// and loses bandwidth versus a uniform stream.
func TestReplayZipfHotspot(t *testing.T) {
	// Narrow hot set: 16 blocks, heavily skewed, so the hottest
	// bank's row cycles dominate.
	hot, err := NewZipfGen(5, 1<<4, 0.99, 128, 0, 6000, false)
	if err != nil {
		t.Fatal(err)
	}
	hotRes, err := Replay(hot, ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	uniform := &StrideGen{Stride: 128, Size: 128, Count: 6000}
	uniRes, err := Replay(uniform, ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if hotRes.DataGBps >= uniRes.DataGBps {
		t.Fatalf("hotspot (%.2f GB/s) not slower than uniform (%.2f)", hotRes.DataGBps, uniRes.DataGBps)
	}
}

// listGen replays a fixed access list.
type listGen []Access

func (g *listGen) Next() (Access, bool) {
	if len(*g) == 0 {
		return Access{}, false
	}
	a := (*g)[0]
	*g = (*g)[1:]
	return a, true
}

// TestReplayMixedKernels: a stream and a pointer chase sharing the
// memory system, their accesses alternating until both end.
func TestReplayMixedKernels(t *testing.T) {
	stream := &StrideGen{Stride: 128, Size: 128, Count: 1000}
	chase := NewChaseGen(1, 64, 50, 1<<32-1)
	var mixed listGen
	for {
		a, okA := stream.Next()
		b, okB := chase.Next()
		if okA {
			mixed = append(mixed, a)
		}
		if okB {
			mixed = append(mixed, b)
		}
		if !okA && !okB {
			break
		}
	}
	res, err := Replay(&mixed, ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses != 1050 {
		t.Fatalf("accesses = %d, want 1050", res.Accesses)
	}
}

func TestReplayValidation(t *testing.T) {
	if _, err := Replay(nil, ReplayConfig{}); err == nil {
		t.Fatal("nil generator accepted")
	}
	// Invalid sizes are coerced, not fatal.
	gen := &StrideGen{Stride: 128, Size: 20, Count: 10}
	res, err := Replay(gen, ReplayConfig{})
	if err != nil || res.Accesses != 10 {
		t.Fatalf("coercion failed: %v %+v", err, res)
	}
}
