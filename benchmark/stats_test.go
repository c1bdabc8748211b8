package main

import (
	"math"
	"testing"
)

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.05, 1}, {0.10, 1}, {0.11, 2}, {0.50, 5}, {0.51, 6}, {0.95, 10}, {0.99, 10}, {1, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

func TestSummarizeReportsMedianTailAndCount(t *testing.T) {
	s := summarize([]float64{5, 1, 4, 2, 3})
	if s.N != 5 || s.P50 != 3 || s.P95 != 5 || s.Max != 5 {
		t.Errorf("summarize = %+v", s)
	}
	if s := summarize([]float64{40, 10, 30, 20}); s.P50 != 25 || s.P95 != 40 {
		t.Errorf("summarize of an even count = %+v, want the middle pair's mean as p50", s)
	}
	if s := summarize(nil); s.N != 0 {
		t.Errorf("summarize(nil) = %+v", s)
	}
}

func TestMedianAveragesTheMiddlePair(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

// The expected values are what Python prints for
// statistics.quantiles(xs, n=4) on the same inputs.
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{0.2, 0.1, 0.4, 0.3, 0.9}, 0.15, 0.3, 0.65},
	} {
		q1, q2, q3 := quartiles(c.xs)
		for i, pair := range [][2]float64{{q1, c.q1}, {q2, c.q2}, {q3, c.q3}} {
			if math.Abs(pair[0]-pair[1]) > 1e-12 {
				t.Errorf("quartiles(%v)[%d] = %v, want %v", c.xs, i, pair[0], pair[1])
			}
		}
	}
}
