package stats

import "math/bits"

// LogHist is the latency record: a log-bucketed histogram plus the
// exact count, sum, min and max of everything recorded. It has fixed
// memory, a zero-allocation record path, exact mergeability, and
// percentile extraction with a documented relative error bound. Every
// latency the harness reports, mean or tail, comes from one.
//
// Units: Record takes a round trip in picoseconds, the sim clock's
// unit. Its whole nanoseconds, truncated toward zero, pick the bucket,
// so Percentile(s), CountAtMost and EachBucket speak nanoseconds at
// bucket granularity. The exact picosecond value feeds the integer
// sum, min and max, so Mean, Min and Max report exact nanoseconds.
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
// Merging adds bucket counts and sums and widens the extremes, which
// is exact: a merged record is struct-equal to one that recorded every
// sample directly (the property internal/stats tests pin). The zero
// value is an empty record, ready to use; Record never allocates.
type LogHist struct {
	n             uint64
	sum, min, max int64 // picoseconds
	counts        [histBuckets]uint64
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

// Record adds one round trip of ps picoseconds. Negative values clamp
// to zero (a latency can go negative only through caller arithmetic
// bugs; the record stays total rather than panicking on the hot path).
// Record performs no allocation — the gate internal/stats tests
// enforce with testing.AllocsPerRun.
func (h *LogHist) Record(ps int64) {
	if ps < 0 {
		ps = 0
	}
	if h.n == 0 || ps < h.min {
		h.min = ps
	}
	if ps > h.max {
		h.max = ps
	}
	h.sum += ps
	h.n++
	h.counts[histBucket(uint64(ps)/1000)]++
}

// N reports the number of recorded observations (0 for a nil record).
func (h *LogHist) N() uint64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Mean reports the exact mean in nanoseconds (0 when empty or nil).
func (h *LogHist) Mean() float64 {
	if h.N() == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n) / 1000
}

// Min reports the exact smallest observation in nanoseconds (0 when
// empty or nil).
func (h *LogHist) Min() float64 {
	if h.N() == 0 {
		return 0
	}
	return float64(h.min) / 1000
}

// Max reports the exact largest observation in nanoseconds (0 when
// empty or nil).
func (h *LogHist) Max() float64 {
	if h.N() == 0 {
		return 0
	}
	return float64(h.max) / 1000
}

// Reset empties the record in place, keeping its storage — the
// warmup/measurement-window split resets monitors without allocating.
func (h *LogHist) Reset() { *h = LogHist{} }

// Merge folds other into h — exactly equivalent to recording all of
// other's samples into h. A nil or empty other is a no-op.
func (h *LogHist) Merge(other *LogHist) {
	if other.N() == 0 {
		return
	}
	if h.n == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.sum += other.sum
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
	if src.N() == 0 {
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
// midpoint in nanoseconds. It returns 0 for an empty histogram.
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

// CountAtMost returns how many recorded samples lie at or below v
// nanoseconds, at bucket granularity: every sample sharing v's bucket
// counts as at-or-under, so the effective threshold is the bucket's
// upper bound (exact below 32, within the 1/64 bucket width above). It
// is monotone in v, exact under Merge, and is the SLO "met" counter
// the scenario QoS grid reports. Negative v, or a nil or empty record,
// counts nothing.
func (h *LogHist) CountAtMost(v int64) uint64 {
	if v < 0 || h.N() == 0 {
		return 0
	}
	b := histBucket(uint64(v))
	var n uint64
	for i := 0; i <= b; i++ {
		n += h.counts[i]
	}
	return n
}
