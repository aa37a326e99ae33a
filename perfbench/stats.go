package main

import (
	"math"
	"slices"
)

// rankQuantile returns the q-quantile of sorted (ascending) by the
// nearest-rank rule: the smallest sample with at least q of the samples at
// or below it. It returns 0 for an empty slice.
func rankQuantile(sorted []int64, q float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	return sorted[max(0, min(i, n-1))]
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []int64) []int64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// quartiles returns the first quartile, the median and the third quartile
// of xs the way Python's statistics.quantiles(xs, n=4) and
// statistics.median compute them (the "exclusive" method), so the spread
// the steadiness mode prints is the one the benchmark is judged by. It
// needs at least two values.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := slices.Clone(xs)
	slices.Sort(d)
	n := len(d)
	if n < 2 {
		if n == 1 {
			return d[0], d[0], d[0]
		}
		return 0, 0, 0
	}
	m := n + 1
	cut := func(i int) float64 {
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	if n%2 == 1 {
		med = d[n/2]
	} else {
		med = (d[n/2-1] + d[n/2]) / 2
	}
	return cut(1), med, cut(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise measure each end-to-end bound is compared against.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// medianF returns the median of xs (0 when empty).
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	_, med, _ := quartiles(xs)
	return med
}
