// Package stats provides the statistical tooling the characterization
// harness needs: the latency record (LogHist: exact count, sum, min
// and max beside log buckets for percentiles), a streaming count, sum,
// min and max for single-shot runs (Summary), ordinary least-squares
// linear regression (used for the paper's Figure 11/12 fits), and
// Little's-law occupancy analysis (Figure 17).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates a stream of observations with O(1) memory,
// tracking count, sum, min and max.
type Summary struct {
	n        uint64
	sum      float64
	min, max float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	if s.n == 0 || x < s.min {
		s.min = x
	}
	if s.n == 0 || x > s.max {
		s.max = x
	}
	s.sum += x
	s.n++
}

// N reports the number of observations.
func (s Summary) N() uint64 { return s.n }

// Mean reports the arithmetic mean (0 if empty).
func (s Summary) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Min reports the smallest observation (0 if empty).
func (s Summary) Min() float64 { return s.min }

// Max reports the largest observation (0 if empty).
func (s Summary) Max() float64 { return s.max }

// Merge folds other into s, as if all of other's observations had
// been Added to s.
func (s *Summary) Merge(other Summary) {
	if other.n == 0 {
		return
	}
	if s.n == 0 || other.min < s.min {
		s.min = other.min
	}
	if s.n == 0 || other.max > s.max {
		s.max = other.max
	}
	s.sum += other.sum
	s.n += other.n
}

// String renders a compact human-readable form.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3g min=%.3g max=%.3g", s.n, s.Mean(), s.Min(), s.Max())
}

// Fit is the result of an ordinary least-squares line fit y = a + b*x.
type Fit struct {
	Intercept float64 // a
	Slope     float64 // b
	R2        float64 // coefficient of determination
	N         int
}

// At evaluates the fitted line at x.
func (f Fit) At(x float64) float64 { return f.Intercept + f.Slope*x }

// SolveX returns the x at which the fitted line reaches y. It returns
// an error for a (near-)zero slope.
func (f Fit) SolveX(y float64) (float64, error) {
	if math.Abs(f.Slope) < 1e-300 {
		return 0, fmt.Errorf("stats: cannot invert fit with zero slope")
	}
	return (y - f.Intercept) / f.Slope, nil
}

// LinearFit computes the least-squares line through (x[i], y[i]).
// It returns an error when fewer than two points are supplied, when
// the slices disagree in length, or when all x are identical.
func LinearFit(xs, ys []float64) (Fit, error) {
	if len(xs) != len(ys) {
		return Fit{}, fmt.Errorf("stats: length mismatch %d vs %d", len(xs), len(ys))
	}
	n := len(xs)
	if n < 2 {
		return Fit{}, fmt.Errorf("stats: need at least 2 points, have %d", n)
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Fit{}, fmt.Errorf("stats: degenerate fit, all x identical")
	}
	b := sxy / sxx
	a := my - b*mx
	r2 := 1.0
	if syy > 0 {
		r2 = (sxy * sxy) / (sxx * syy)
	}
	return Fit{Intercept: a, Slope: b, R2: r2, N: n}, nil
}

// Littles computes the time-average number of items in a system from
// Little's law: L = lambda * W. The paper applies it to the saturated
// vault controller (Section IV-E4) to infer outstanding-request depth.
//
// ratePerSec is the arrival rate (requests/second) and waitSeconds the
// mean residence time.
func Littles(ratePerSec, waitSeconds float64) float64 {
	return ratePerSec * waitSeconds
}

// Percentile returns the p-th percentile (0..100) of values using
// nearest-rank selection. It returns 0 for an empty slice and never
// mutates its input.
//
// The value is found by quickselect on a copy — expected O(n) instead
// of the O(n log n) full sort this used to pay — and matches the
// sorted nearest-rank definition exactly. Callers needing several
// quantiles of one sample should use Percentiles, which sorts once.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	work := append([]float64(nil), values...)
	return quickselect(work, rankIndex(p, len(work)))
}

// Percentiles returns the nearest-rank percentiles of values for each
// p in ps, sorting one copy once — cheaper than repeated Percentile
// calls from three quantiles up. It returns zeros for an empty slice
// and never mutates its input.
func Percentiles(values []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(values) == 0 {
		return out
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	for i, p := range ps {
		out[i] = sorted[rankIndex(p, len(sorted))]
	}
	return out
}

// rankIndex converts a percentile to its 0-based nearest-rank index
// in a sorted n-element sample.
func rankIndex(p float64, n int) int {
	if p <= 0 {
		return 0
	}
	if p >= 100 {
		return n - 1
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return rank - 1
}

// fless orders float64s exactly as sort.Float64s does: NaNs sort
// before everything else. Quickselect must use the same order so
// Percentile and the sort-based Percentiles agree on any input —
// plain < would also send the Hoare scans past the slice end when
// the pivot is NaN.
func fless(a, b float64) bool {
	return a < b || (math.IsNaN(a) && !math.IsNaN(b))
}

// quickselect partially orders work so that work[k] holds the k-th
// smallest element (in fless order), and returns it. Median-of-three
// pivoting keeps sorted and reverse-sorted inputs off the quadratic
// path.
func quickselect(work []float64, k int) float64 {
	lo, hi := 0, len(work)-1
	for lo < hi {
		// Median-of-three pivot, parked at lo.
		mid := int(uint(lo+hi) >> 1)
		if fless(work[mid], work[lo]) {
			work[mid], work[lo] = work[lo], work[mid]
		}
		if fless(work[hi], work[lo]) {
			work[hi], work[lo] = work[lo], work[hi]
		}
		if fless(work[hi], work[mid]) {
			work[hi], work[mid] = work[mid], work[hi]
		}
		work[lo], work[mid] = work[mid], work[lo]
		pivot := work[lo]

		// Hoare partition.
		i, j := lo-1, hi+1
		for {
			for {
				i++
				if !fless(work[i], pivot) {
					break
				}
			}
			for {
				j--
				if !fless(pivot, work[j]) {
					break
				}
			}
			if i >= j {
				break
			}
			work[i], work[j] = work[j], work[i]
		}
		if k <= j {
			hi = j
		} else {
			lo = j + 1
		}
	}
	return work[k]
}
