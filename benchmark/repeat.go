package main

import (
	"fmt"
	"math"
)

// printRepeatability prints, per workload and end-to-end metric, the
// median and quartiles over the sets, the quartile spread the driver
// judges (q3-q1 over the median), and the largest relative deviation of
// any set from the median, against the metric's bound in BENCHMARK.json.
// It reports false when a deviation exceeds its bound, when
// predictions_sha256 or abs_rel_err_median did not repeat exactly.
func printRepeatability(sets [][]*result) (bool, error) {
	b, err := readBenchmarkFile()
	if err != nil {
		return false, err
	}
	bounds := map[string]float64{}
	for _, m := range b.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	ok := true
	fmt.Printf("repeatability over %d sets:\n", len(sets))
	fmt.Printf("  %-17s %-21s %12s %12s %12s %8s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "max dev", "bound")
	for w, name := range workloadNames {
		for _, d := range endToEndMetrics {
			xs := make([]float64, len(sets))
			for i, set := range sets {
				xs[i] = set[w].EndToEnd[d.name]
			}
			q1, q2, q3 := quartiles(xs)
			var dev float64
			for _, x := range xs {
				dev = math.Max(dev, math.Abs(x-q2)/q2)
			}
			verdict := ""
			if dev > bounds[d.name] {
				verdict, ok = "  EXCEEDS BOUND", false
			}
			if d.name == "abs_rel_err_median" && dev != 0 {
				verdict, ok = "  DID NOT REPEAT EXACTLY", false
			}
			fmt.Printf("  %-17s %-21s %12.6g %12.6g %12.6g %8.4f %8.4f %6.2f%s\n",
				name, d.name, q1, q2, q3, (q3-q1)/q2, dev, bounds[d.name], verdict)
		}
		for _, set := range sets[1:] {
			if set[w].PredictionsSHA256 != sets[0][w].PredictionsSHA256 {
				fmt.Printf("  %-17s predictions_sha256 DID NOT REPEAT: %s vs %s\n", name, sets[0][w].PredictionsSHA256, set[w].PredictionsSHA256)
				ok = false
			}
		}
	}
	return ok, nil
}
