package main

import (
	"math"
	"sort"
)

// summary is how every timing is reported: median, tail and sample
// count, never best-of-N.
type summary struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	Max float64 `json:"max"`
}

// summarize sorts xs in place. P50 is the median proper (an even count
// averages its middle pair): a cold_fit phase has a few dozen latencies in
// well separated cost classes, and a nearest-rank p50 there jumps from one
// class to the next when two fits swap places.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	sort.Float64s(xs)
	n := len(xs)
	return summary{N: n, P50: (xs[(n-1)/2] + xs[n/2]) / 2, P95: percentile(xs, 0.95), Max: xs[n-1]}
}

// percentile is the nearest-rank percentile of an ascending slice: the
// smallest element with at least p of the samples at or below it. It
// returns a value that was measured, never an interpolation.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := min(max(int(math.Ceil(p*float64(len(sorted)))), 1), len(sorted))
	return sorted[rank-1]
}

// median copies xs; an even count averages the two middle values.
func median(xs []float64) float64 {
	return summarize(append([]float64(nil), xs...)).P50
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), which is what the driver uses to judge
// run-to-run spread, so -repeat judges the same quantity. It needs at
// least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
