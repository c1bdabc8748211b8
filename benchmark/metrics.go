package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of predictd sees. Every workload reports
// every one; BENCHMARK.json declares the same names with their bounds.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"warm_predict_rps", "req/s"},
	{"warm_predict_p50_ms", "ms"},
	{"warm_predict_p95_ms", "ms"},
	{"cold_fit_p50_ms", "ms"},
	{"cold_fits_per_s", "fits/s"},
	{"observe_p50_ms", "ms"},
	{"observes_per_s", "ops/s"},
	{"abs_rel_err_median", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayerNames are the single-layer metrics, grouped by module. The
// service counters and the client group come from the predictd child of
// the workload run; everything else from the traced run.
var perLayerNames = []string{
	"graph.load_text_ms", "graph.load_snapshot_ms", "graph.open_mmap_ms", "graph.load_snapshot_allocs", "graph.induce_ms",
	"sampling.sample_ms", "sampling.sample_allocs",
	"algorithms.sample_run_ms.PR", "algorithms.sample_run_ms.CC", "algorithms.sample_run_ms.NH",
	"algorithms.sample_run_ms.TOPK", "algorithms.sample_run_ms.SC",
	"bsp.supersteps", "bsp.messages", "bsp.superstep_us", "bsp.critical_share_us",
	"features.from_profile_us",
	"costmodel.train_ms", "costmodel.refit_us",
	"core.fit_ms", "core.fit_parallel_ms", "core.fit_unattributed_share",
	"core.extrapolate_us", "core.extrapolate_allocs",
	"core.blend_extrapolation_us", "core.blend_interpolation_us", "core.blend_interpolation_allocs",
	"parallel.fit_speedup",
	"history.append_sync_ms", "history.record_bytes", "history.load_file_ms", "history.compact_file_ms",
	"service.predict_warm_us", "service.predict_warm_allocs", "service.handler_warm_us", "service.handler_warm_allocs",
	"service.warm_unattributed_share", "service.predict_cold_self_ms", "service.observe_us",
	"service.warm_from_history_ms", "service.save_history_ms", "service.load_dataset_ms",
	"http.loopback_warm_us",
	"service.hit_ratio", "service.fits", "service.coalesced", "service.evictions", "service.shed",
	"service.checkpoints_written", "service.compactions", "service.io_retries", "service.blend_interpolation",
	"client.late_p95_ms", "client.warm_refits", "client.warm_predict_p99_ms", "client.cold_fit_p90_ms", "client.restart_ms",
	"trace.overhead_share",
}

// layerUnit derives a per-layer metric's unit from its name;
// algorithms.sample_run_ms.PR carries its unit before the algorithm.
func layerUnit(name string) string {
	base := name
	for _, alg := range coldAlgorithms {
		base = strings.TrimSuffix(base, "."+alg)
	}
	switch {
	case strings.HasSuffix(base, "_ms"):
		return "ms"
	case strings.HasSuffix(base, "_us"):
		return "us"
	case strings.HasSuffix(base, "_allocs"):
		return "allocs"
	case strings.HasSuffix(base, "_bytes"):
		return "bytes"
	case strings.HasSuffix(base, "_share"), strings.HasSuffix(base, "_ratio"), strings.HasSuffix(base, "_speedup"):
		return "ratio"
	}
	return "count"
}

func perLayerMetrics() []metricDef {
	out := make([]metricDef, len(perLayerNames))
	for i, n := range perLayerNames {
		out[i] = metricDef{n, layerUnit(n)}
	}
	return out
}

// benchmarkFile is the part of BENCHMARK.json the harness reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile() (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// resultLine is the driver's contract: the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricValues pairs every metric in defs with its measured value; a
// metric a run has no value for reads 0, and a value JSON cannot carry is
// an error.
func metricValues(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}
