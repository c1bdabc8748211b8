package main

import (
	"slices"
	"strings"
	"testing"
	"time"
)

// TestSmokeAllWorkloads runs the whole benchmark small: prepare at scale
// 0.05, every workload for one second with short set-up, warm-up and
// probes, and the traced run. It keeps the harness building and running
// against the real predictd and fails on any failed operation.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs predictd; skipped with -short")
	}
	start := time.Now()
	e, err := prepare(1, 0.05, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tiny := sizing{setupRepeats: 1, warmup: 100 * time.Millisecond, probe: 200 * time.Millisecond}
	for _, name := range workloadNames {
		res, err := runWorkload(e, name, 1, tiny)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Failed > 0 || res.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d: %v", name, res.Attempted, res.Failed, res.Failures)
		}
		for _, d := range endToEndMetrics {
			if v, ok := res.EndToEnd[d.name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive value", name, d.name, v)
			}
		}
		if name == "cold_fit" && len(res.PredictionsSHA256) != 64 {
			t.Errorf("cold_fit: predictions_sha256 = %q", res.PredictionsSHA256)
		}
		if _, err := metricValues(endToEndMetrics, res.EndToEnd); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	layers, err := tracedRun(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range perLayerNames {
		fromChild := strings.HasPrefix(name, "client.") || slices.Contains(serviceCounters, strings.TrimPrefix(name, "service."))
		if _, ok := layers.Metrics[name]; !ok && !fromChild {
			t.Errorf("the traced run did not measure %s", name)
		}
	}
	if len(layers.spans) == 0 {
		t.Error("the traced run recorded no spans")
	}
	t.Logf("smoke run took %.1f s", time.Since(start).Seconds())
}
