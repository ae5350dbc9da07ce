package stats

import (
	"math"
	"math/rand"
	"testing"
)

// logHistQuantiles are the quantiles every report extracts; the
// property tests pin all of them plus the extremes.
var logHistQuantiles = []float64{0, 10, 25, 50, 75, 90, 99, 99.9, 100}

// sampleSets generates the randomized inputs the property tests run
// over, in nanoseconds (tests record them as picoseconds, ×1000):
// several distribution shapes per seed, covering the exact sub-32
// region, mid-range uniform draws, and the heavy tails where the log
// buckets are widest.
func sampleSets(r *rand.Rand, n int) map[string][]int64 {
	sets := map[string][]int64{
		"small-exact": make([]int64, n), // all in the exact 0..31 buckets
		"uniform":     make([]int64, n),
		"exponential": make([]int64, n),
		"heavy-tail":  make([]int64, n),
		"mixed":       make([]int64, n),
	}
	for i := 0; i < n; i++ {
		sets["small-exact"][i] = r.Int63n(32)
		sets["uniform"][i] = r.Int63n(5_000_000)
		sets["exponential"][i] = int64(r.ExpFloat64() * 800)
		sets["heavy-tail"][i] = int64(math.Pow(10, 2+6*r.Float64()))
		sets["mixed"][i] = r.Int63n(1 << uint(1+r.Intn(40)))
	}
	return sets
}

// TestLogHistPercentilesMatchExact: on randomized inputs, histogram
// percentiles agree with the exact nearest-rank Percentiles within
// the documented bucket error bound — exact below 32, and within half
// a bucket width (1/64 relative) above.
func TestLogHistPercentilesMatchExact(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		for name, vals := range sampleSets(r, 2000) {
			var h LogHist
			fs := make([]float64, len(vals))
			for i, v := range vals {
				h.Record(v * 1000)
				fs[i] = float64(v)
			}
			exact := Percentiles(fs, logHistQuantiles...)
			got := h.Percentiles(logHistQuantiles...)
			for i, p := range logHistQuantiles {
				e, g := exact[i], got[i]
				if e < histSubCount {
					if g != e {
						t.Errorf("seed %d %s p%g: exact bucket value %v, histogram %v", seed, name, p, e, g)
					}
					continue
				}
				if rel := math.Abs(g-e) / e; rel > 1.0/64+1e-12 {
					t.Errorf("seed %d %s p%g: exact %v histogram %v rel err %.4f > 1/64", seed, name, p, e, g, rel)
				}
			}
		}
	}
}

// TestLogHistMergeEquivalence: merging shard histograms is exactly
// recording all samples into one — identical counts bucket for bucket,
// and therefore identical percentiles.
func TestLogHistMergeEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for name, vals := range sampleSets(r, 3000) {
		var whole LogHist
		shards := make([]LogHist, 4)
		for i, v := range vals {
			whole.Record(v * 1000)
			shards[i%len(shards)].Record(v * 1000)
		}
		var merged LogHist
		for i := range shards {
			merged.Merge(&shards[i])
		}
		if merged.N() != whole.N() {
			t.Fatalf("%s: merged N %d != whole N %d", name, merged.N(), whole.N())
		}
		if merged != whole {
			t.Errorf("%s: merged bucket state differs from direct recording", name)
		}
		for _, p := range logHistQuantiles {
			if m, w := merged.Percentile(p), whole.Percentile(p); m != w {
				t.Errorf("%s p%g: merged %v != whole %v", name, p, m, w)
			}
		}
	}
}

// TestLogHistMergeEdgeCases: nil and empty merges are no-ops.
func TestLogHistMergeEdgeCases(t *testing.T) {
	var h LogHist
	h.Record(100_000)
	h.Merge(nil)
	h.Merge(&LogHist{})
	if h.N() != 1 {
		t.Fatalf("N after no-op merges = %d", h.N())
	}
}

// TestLogHistEmptyAndNegative: empty and nil records report zeros;
// negative values clamp into bucket 0 instead of corrupting state.
func TestLogHistEmptyAndNegative(t *testing.T) {
	var nilHist *LogHist
	if nilHist.N() != 0 || nilHist.Mean() != 0 || nilHist.Min() != 0 || nilHist.Max() != 0 {
		t.Fatal("nil record not zero")
	}
	var h LogHist
	if h.Percentile(50) != 0 || h.N() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not zero")
	}
	h.Record(-17_000)
	if h.N() != 1 || h.Percentile(100) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("negative record: N %d p100 %v min %v max %v", h.N(), h.Percentile(100), h.Min(), h.Max())
	}
}

// TestLogHistTruncatesToNanoseconds: the bucket is picked by the whole
// nanoseconds of the picosecond input, truncated toward zero (999 ps
// lands in bucket 0, 1000 ps in bucket 1), while Min keeps the exact
// picoseconds.
func TestLogHistTruncatesToNanoseconds(t *testing.T) {
	for _, c := range []struct{ ps, ns int64 }{
		{0, 0},
		{999, 0},
		{1000, 1},
		{1999, 1},
		{42_500, 42},
		{3_000_000, 3000},
	} {
		var h LogHist
		h.Record(c.ps)
		if got := h.counts[histBucket(uint64(c.ns))]; got != 1 {
			t.Errorf("%d ps: bucket of %d ns holds %d, want 1", c.ps, c.ns, got)
		}
		if got, want := h.Min(), float64(c.ps)/1000; got != want {
			t.Errorf("%d ps: Min %v ns, want exact %v", c.ps, got, want)
		}
	}
}

// TestLogHistExactMoments: on random picosecond inputs, N, Mean, Min
// and Max equal the values computed directly from the inputs, also
// after Merge, and a merged record is struct-equal to one that
// recorded every input directly.
func TestLogHistExactMoments(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	check := func(what string, h *LogHist, n int, sum, lo, hi int64) {
		t.Helper()
		if h.N() != uint64(n) {
			t.Fatalf("%s: N %d, want %d", what, h.N(), n)
		}
		if n == 0 {
			return
		}
		if want := float64(sum) / float64(n) / 1000; h.Mean() != want {
			t.Errorf("%s: Mean %v, want %v", what, h.Mean(), want)
		}
		if want := float64(lo) / 1000; h.Min() != want {
			t.Errorf("%s: Min %v, want %v", what, h.Min(), want)
		}
		if want := float64(hi) / 1000; h.Max() != want {
			t.Errorf("%s: Max %v, want %v", what, h.Max(), want)
		}
	}
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(400)
		var whole LogHist
		shards := make([]LogHist, 1+r.Intn(4))
		var sum, lo, hi int64
		for i := 0; i < n; i++ {
			ps := 1 + r.Int63n(1<<uint(1+r.Intn(36)))
			if i == 0 || ps < lo {
				lo = ps
			}
			if ps > hi {
				hi = ps
			}
			sum += ps
			whole.Record(ps)
			shards[r.Intn(len(shards))].Record(ps)
		}
		check("direct", &whole, n, sum, lo, hi)
		var merged LogHist
		for i := range shards {
			merged.Merge(&shards[i])
		}
		check("merged", &merged, n, sum, lo, hi)
		if merged != whole {
			t.Fatalf("trial %d: merged state differs from direct recording", trial)
		}
	}
}

// TestHistogramRecordZeroAlloc gates the record path at 0 allocs/op:
// latency telemetry rides every completed request, so the hot path
// must never touch the allocator.
func TestHistogramRecordZeroAlloc(t *testing.T) {
	var h LogHist
	v := int64(1)
	if allocs := testing.AllocsPerRun(1000, func() {
		h.Record(v * 1000)
		v = (v*2862933555777941757 + 3037000493) & (1<<40 - 1)
	}); allocs != 0 {
		t.Fatalf("LogHist.Record allocates %.1f allocs/op, want 0", allocs)
	}
}

// FuzzHistogramBucketRoundTrip: for any value, the bucket index is in
// range, the bounds contain the value, adjacent buckets tile the axis
// with no gap, and the midpoint honors the documented error bound.
func FuzzHistogramBucketRoundTrip(f *testing.F) {
	for _, v := range []uint64{0, 1, 31, 32, 63, 64, 1023, 1 << 20, 1<<63 - 1, math.MaxUint64} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v uint64) {
		i := histBucket(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("bucket index %d out of range for %d", i, v)
		}
		lo, hi := histBounds(i)
		if v < lo || v > hi {
			t.Fatalf("value %d outside its bucket [%d,%d]", v, lo, hi)
		}
		if i+1 < histBuckets {
			nlo, _ := histBounds(i + 1)
			if nlo != hi+1 {
				t.Fatalf("gap between bucket %d (hi %d) and %d (lo %d)", i, hi, i+1, nlo)
			}
		}
		if v >= histSubCount {
			if rel := math.Abs(histMid(i)-float64(v)) / float64(v); rel > 1.0/64+1e-12 {
				t.Fatalf("midpoint of bucket %d off by %.4f relative for %d", i, rel, v)
			}
		} else if histMid(i) != float64(v) {
			t.Fatalf("sub-32 bucket %d not exact for %d", i, v)
		}
	})
}

func BenchmarkLogHistRecord(b *testing.B) {
	var h LogHist
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record((int64(i&0xfffff) + 100) * 1000)
	}
}
