package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if !approx(s.Mean(), 5, 1e-12) {
		t.Fatalf("mean = %v", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty summary not all-zero")
	}
}

func TestSummarySingle(t *testing.T) {
	var s Summary
	s.Add(-3)
	if s.Mean() != -3 || s.Min() != -3 || s.Max() != -3 {
		t.Fatal("single-element summary wrong")
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 + 2*x
	}
	fit, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(fit.Slope, 2, 1e-12) || !approx(fit.Intercept, 3, 1e-12) {
		t.Fatalf("fit = %+v", fit)
	}
	if !approx(fit.R2, 1, 1e-12) {
		t.Fatalf("R2 = %v", fit.R2)
	}
	if !approx(fit.At(10), 23, 1e-12) {
		t.Fatalf("At(10) = %v", fit.At(10))
	}
}

func TestLinearFitNoisy(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6}
	ys := []float64{2.1, 3.9, 6.2, 7.8, 10.1, 11.9}
	fit, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(fit.Slope, 2, 0.1) || !approx(fit.Intercept, 0, 0.3) {
		t.Fatalf("noisy fit = %+v", fit)
	}
	if fit.R2 < 0.99 {
		t.Fatalf("R2 = %v", fit.R2)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Error("single point fit succeeded")
	}
	if _, err := LinearFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("mismatched lengths succeeded")
	}
	if _, err := LinearFit([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("vertical line fit succeeded")
	}
}

// Property: fitting y = a + b*x exactly recovers a and b for any
// reasonable a, b and >= 2 distinct xs.
func TestLinearFitRecoveryProperty(t *testing.T) {
	f := func(a, b int8, n uint8) bool {
		pts := int(n%16) + 2
		xs := make([]float64, pts)
		ys := make([]float64, pts)
		for i := range xs {
			xs[i] = float64(i)
			ys[i] = float64(a) + float64(b)*xs[i]
		}
		fit, err := LinearFit(xs, ys)
		if err != nil {
			return false
		}
		return approx(fit.Slope, float64(b), 1e-9) && approx(fit.Intercept, float64(a), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLittles(t *testing.T) {
	// 100 req/s with 0.05 s residence => 5 in system.
	if got := Littles(100, 0.05); !approx(got, 5, 1e-12) {
		t.Fatalf("Littles = %v", got)
	}
}

// Property: Percentiles must return exactly the sorted nearest-rank
// value for any sample and any quantile, including sorted, reversed
// and heavily duplicated inputs.
func TestPercentileMatchesSortedRank(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	gen := []func(n int) []float64{
		func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = r.NormFloat64() * 100
			}
			return v
		},
		func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = float64(i) // pre-sorted
			}
			return v
		},
		func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = float64(n - i) // reverse-sorted
			}
			return v
		},
		func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = float64(r.Intn(3)) // heavy duplicates
			}
			return v
		},
	}
	ps := []float64{-5, 0, 1, 25, 50, 90, 95, 99, 99.9, 100, 120}
	for gi, g := range gen {
		for _, n := range []int{1, 2, 3, 7, 100, 1001} {
			v := g(n)
			sorted := append([]float64(nil), v...)
			sort.Float64s(sorted)
			if got := Percentiles(v, ps...); len(got) != len(ps) {
				t.Fatalf("Percentiles returned %d values for %d quantiles", len(got), len(ps))
			} else {
				for i, p := range ps {
					if got[i] != sorted[rankIndex(p, n)] {
						t.Fatalf("gen %d n=%d Percentiles[%v] = %v, want %v", gi, n, p, got[i], sorted[rankIndex(p, n)])
					}
				}
			}
		}
	}
}

// NaN inputs must not panic and must match sort.Float64s semantics
// (NaNs rank first).
func TestPercentileNaN(t *testing.T) {
	v := []float64{math.NaN(), 1, 2, math.NaN(), 3}
	sorted := append([]float64(nil), v...)
	sort.Float64s(sorted)
	for _, p := range []float64{0, 10, 50, 90, 100} {
		want := sorted[rankIndex(p, len(v))]
		if ps := Percentiles(v, p); math.IsNaN(want) != math.IsNaN(ps[0]) || (!math.IsNaN(want) && ps[0] != want) {
			t.Fatalf("Percentiles p%v = %v, want %v", p, ps[0], want)
		}
	}
}

func TestPercentilesEmptyAndNoMutate(t *testing.T) {
	if got := Percentiles(nil, 50, 99); got[0] != 0 || got[1] != 0 {
		t.Fatalf("empty Percentiles = %v", got)
	}
	v := []float64{9, 1, 5}
	Percentiles(v, 10, 90)
	if v[0] != 9 || v[2] != 5 {
		t.Fatal("Percentiles sorted the caller's slice")
	}
}
