package stats

import "math/bits"

// LogHist is a log-bucketed latency histogram: fixed memory, a
// zero-allocation record path, exact mergeability, and percentile
// extraction with a documented relative error bound. It is the
// telemetry primitive behind every tail-latency number the harness
// reports — Summary keeps exact mean/min/max alongside, LogHist keeps
// the shape of the distribution.
//
// Bucketing follows the HdrHistogram family: values 0..31 get exact
// unit buckets; above that, each power-of-two range is split into 32
// linear subbuckets (the value's top 6 significant bits select the
// bucket). A percentile is reported as its bucket's midpoint, so the
// relative error is at most half a bucket width: |reported-true|/true
// <= 1/64 (~1.6%) for values >= 32, and zero below 32. The full
// uint64 range is covered, so a nanosecond-scale recording never
// overflows or clips.
//
// Merging adds bucket counts, which is exact: a merged histogram is
// byte-identical in state to one that recorded every sample directly
// (the property internal/stats tests pin). The zero value is an empty
// histogram, ready to use; Record never allocates.
type LogHist struct {
	n      uint64
	counts [histBuckets]uint64
}

const (
	// histSubBits fixes the per-octave resolution: 1<<histSubBits
	// linear subbuckets per power of two.
	histSubBits  = 5
	histSubCount = 1 << histSubBits // 32 subbuckets, 1/64 midpoint error

	// histBuckets covers all of uint64: 32 exact unit buckets for
	// 0..31, then 32 subbuckets for each of the 59 octaves with a most
	// significant bit in 5..63.
	histBuckets = histSubCount + (64-histSubBits)*histSubCount // 1920
)

// histBucket maps a value to its bucket index. Indices are monotone
// in the value, so cumulative scans walk the distribution in order.
func histBucket(v uint64) int {
	if v < histSubCount {
		return int(v)
	}
	shift := bits.Len64(v) - 1 - histSubBits
	return shift<<histSubBits + int(v>>uint(shift))
}

// histBounds is histBucket's inverse: the inclusive [lo, hi] value
// range of bucket i. Adjacent buckets tile the axis with no gaps.
func histBounds(i int) (lo, hi uint64) {
	if i < histSubCount {
		return uint64(i), uint64(i)
	}
	shift := uint(i>>histSubBits) - 1
	sub := uint64(i) - uint64(shift)<<histSubBits // in [32, 64)
	lo = sub << shift
	return lo, lo + (1<<shift - 1)
}

// histMid is bucket i's reported value: the midpoint of its range.
func histMid(i int) float64 {
	lo, hi := histBounds(i)
	return float64(lo) + float64(hi-lo)/2
}

// Record adds one observation. Negative values clamp to zero (a
// latency can round to -0 only through caller arithmetic bugs; the
// histogram stays total rather than panicking on the hot path).
// Record performs no allocation — the gate internal/stats tests
// enforce with testing.AllocsPerRun.
func (h *LogHist) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histBucket(uint64(v))]++
	h.n++
}

// N reports the number of recorded observations.
func (h *LogHist) N() uint64 { return h.n }

// Reset empties the histogram in place, keeping its storage — the
// warmup/measurement-window split resets monitors without allocating.
func (h *LogHist) Reset() { *h = LogHist{} }

// Merge folds other into h by adding bucket counts — exactly
// equivalent to recording all of other's samples into h. A nil or
// empty other is a no-op.
func (h *LogHist) Merge(other *LogHist) {
	if other == nil || other.n == 0 {
		return
	}
	h.n += other.n
	for i, c := range other.counts {
		if c != 0 {
			h.counts[i] += c
		}
	}
}

// MergeHist folds src into *dst, allocating *dst on first use — the
// accumulate-into-a-possibly-nil-slot shape every monitor and tenant
// accumulator shares. A nil or empty src is a no-op and allocates
// nothing.
func MergeHist(dst **LogHist, src *LogHist) {
	if src == nil || src.N() == 0 {
		return
	}
	if *dst == nil {
		*dst = &LogHist{}
	}
	(*dst).Merge(src)
}

// Percentile returns the p-th percentile (0..100) under the same
// nearest-rank definition as Percentile/Percentiles on raw samples:
// the bucket holding the nearest-rank sample, reported as its
// midpoint. It returns 0 for an empty histogram.
func (h *LogHist) Percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	return histMid(h.bucketAtRank(uint64(rankIndex(p, int(h.n)))))
}

// Percentiles returns the percentiles for each p in ps; equivalent to
// repeated Percentile calls.
func (h *LogHist) Percentiles(ps ...float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = h.Percentile(p)
	}
	return out
}

// bucketAtRank finds the bucket containing the 0-based k-th smallest
// recorded sample.
func (h *LogHist) bucketAtRank(k uint64) int {
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum > k {
			return i
		}
	}
	return histBuckets - 1 // unreachable for k < n
}

// CountAtMost returns how many recorded samples lie at or below v,
// at bucket granularity: every sample sharing v's bucket counts as
// at-or-under, so the effective threshold is the bucket's upper bound
// (exact below 32, within the 1/64 bucket width above). It is
// monotone in v, exact under Merge, and is the SLO "met" counter the
// scenario QoS grid reports. Negative v counts nothing.
func (h *LogHist) CountAtMost(v int64) uint64 {
	if v < 0 {
		return 0
	}
	b := histBucket(uint64(v))
	var n uint64
	for i := 0; i <= b; i++ {
		n += h.counts[i]
	}
	return n
}

// EachBucket calls f for every nonempty bucket in ascending value
// order with the bucket's inclusive range and count — the iteration
// shape sinks and tests consume without exposing the storage.
func (h *LogHist) EachBucket(f func(lo, hi uint64, count uint64)) {
	for i, c := range h.counts {
		if c != 0 {
			lo, hi := histBounds(i)
			f(lo, hi, c)
		}
	}
}
