package main

import (
	"slices"
	"strings"
	"testing"
)

// The harness and BENCHMARK.json must name the same workloads and
// metrics with the same units: the driver refuses a result line that
// lacks a declared metric.
func TestEmittedMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range b.Workloads {
		declared = append(declared, w.Name)
	}
	if !slices.Equal(declared, workloadNames) {
		t.Errorf("workloads: BENCHMARK.json has %v, the harness runs %v", declared, workloadNames)
	}

	var want, got []string
	for _, m := range b.EndToEnd {
		want = append(want, m.Name+" "+m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		if higher := strings.HasSuffix(m.Name, "_rps") || strings.HasSuffix(m.Name, "_per_s"); (m.Better == "higher") != higher {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, d := range endToEndMetrics {
		got = append(got, d.name+" "+d.unit)
	}
	if !slices.Equal(want, got) {
		t.Errorf("end_to_end: BENCHMARK.json has\n  %v\nthe harness reports\n  %v", want, got)
	}

	want, got = nil, nil
	for _, m := range b.PerLayer {
		want = append(want, m.Name+" "+m.Unit)
	}
	for _, d := range perLayerMetrics() {
		got = append(got, d.name+" "+d.unit)
	}
	if !slices.Equal(want, got) {
		t.Errorf("per_layer: BENCHMARK.json has\n  %v\nthe harness reports\n  %v", want, got)
	}
}

func TestLayerUnits(t *testing.T) {
	for name, want := range map[string]string{
		"algorithms.sample_run_ms.TOPK":   "ms",
		"bsp.critical_share_us":           "us",
		"core.fit_unattributed_share":     "ratio",
		"parallel.fit_speedup":            "ratio",
		"service.hit_ratio":               "ratio",
		"service.predict_warm_allocs":     "allocs",
		"history.record_bytes":            "bytes",
		"service.fits":                    "count",
		"client.warm_refits":              "count",
		"service.warm_unattributed_share": "ratio",
	} {
		if got := layerUnit(name); got != want {
			t.Errorf("layerUnit(%s) = %s, want %s", name, got, want)
		}
	}
}

func TestMetricValuesRejectsWhatJSONCannotCarry(t *testing.T) {
	defs := []metricDef{{"a", "ms"}, {"b", "ms"}}
	vals, err := metricValues(defs, map[string]float64{"a": 1.5})
	if err != nil || vals["a"].Value != 1.5 || vals["b"].Value != 0 || vals["b"].Unit != "ms" {
		t.Errorf("metricValues = %v, %v", vals, err)
	}
	zero := 0.0
	if _, err := metricValues(defs, map[string]float64{"a": 1 / zero}); err == nil {
		t.Error("an infinite metric was accepted")
	}
}

func TestOnlyDeploymentFlagsAreAccepted(t *testing.T) {
	if err := checkServingFlags(servingFlags("datasets", "models.jsonl")); err != nil {
		t.Errorf("the benchmark's own flag line was refused: %v", err)
	}
	for _, bad := range [][]string{
		{"-addr", ":0", "-batch-window", "20ms"},
		{"-batch-window=20ms"},
		{"-fit-parallelism", "1"},
		{"--max-models=8"},
	} {
		if err := checkServingFlags(bad); err == nil {
			t.Errorf("flag line %v was accepted", bad)
		}
	}
}
