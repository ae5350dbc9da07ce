package main

import (
	"math"
	"sort"
)

// summary is one metric with the spread of the samples behind it.
// Value is the reported statistic: the median unless noted.
type summary struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// summarize reports the median of xs as the value.
func summarize(unit string, xs []float64) summary {
	s := sorted(xs)
	if len(s) == 0 {
		return summary{Unit: unit}
	}
	m := quantile(s, 0.5)
	return summary{Unit: unit, N: len(s), Value: m, Median: m,
		Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), Min: s[0], Max: s[len(s)-1]}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates sorted s at p the way Python's
// statistics.quantiles does by default (the "exclusive" method), so
// the recorded quartiles match how run-to-run spread is judged.
func quantile(s []float64, p float64) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	h := p * float64(n+1)
	switch {
	case h <= 1:
		return s[0]
	case h >= float64(n):
		return s[n-1]
	}
	lo := math.Floor(h)
	return s[int(lo)-1] + (h-lo)*(s[int(lo)]-s[int(lo)-1])
}

// percentile is the nearest-rank p-th percentile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(k, 0)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(sorted(xs), 0.5)
}
