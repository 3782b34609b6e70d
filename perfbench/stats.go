package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. xs is sorted in place. NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rankIndex(len(xs), p)]
}

// rankIndex is the 0-based index of the nearest-rank p-th percentile in
// a sorted sample of n.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p*float64(n)/100)) - 1
	return min(max(i, 0), n-1)
}

// tailPercentiles are the candidates tailPercentile chooses among,
// highest first.
var tailPercentiles = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile in tailPercentiles that
// leaves at least 10 of n samples strictly beyond it, so that the value
// reported for it is not one or two stray samples. It returns 0 when
// even the median leaves fewer than 10 (n < 20).
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n-1-rankIndex(n, p) >= 10 {
			return p
		}
	}
	return 0
}

// median is percentile(xs, 50) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 50)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
