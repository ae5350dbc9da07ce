// Package stats provides the statistical tooling the characterization
// harness needs: the latency record (LogHist: exact count, sum, min
// and max beside log buckets for percentiles), a streaming count, sum,
// min and max (Summary, which only bench/hmcbench's ladder still
// times), ordinary least-squares linear regression (used for the
// paper's Figure 11/12 fits), and Little's-law occupancy analysis
// (Figure 17).
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

// String renders a compact human-readable form.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3g min=%.3g max=%.3g", s.n, s.Mean(), s.Min(), s.Max())
}

// Fit is the result of an ordinary least-squares line fit y = a + b*x.
type Fit struct {
	Intercept float64 // a
	Slope     float64 // b
	R2        float64 // coefficient of determination
}

// At evaluates the fitted line at x.
func (f Fit) At(x float64) float64 { return f.Intercept + f.Slope*x }

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
	return Fit{Intercept: a, Slope: b, R2: r2}, nil
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

// Percentiles returns the nearest-rank percentiles of values for each
// p in ps, sorting one copy once. It returns zeros for an empty slice
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
