// Command benchmark is the one benchmark of predictd: it builds the real
// cmd/predictd, drives it over loopback HTTP with production-default
// flags through four workloads, checks every response, and measures
// single layers in a separate traced run. See README.md.
//
// Usage (from this directory, or through run.sh from anywhere):
//
//	go run . -seed 1                        # all workloads, then the traced run
//	go run . -seed 1 -repeat 3              # three full sets, with spread against the bounds
//	go run . --workload cold_fit --seed 7 --seconds 10 --trace 0   # the driver's form
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// outDir holds everything the benchmark writes: the built binaries, the
// generated registry, history files, results.json and trace.json.
const outDir = "out"

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and end with the driver's JSON result line (default: all four, then the traced run)")
		seed     = flag.Uint64("seed", 1, "seed of every generated request list")
		seconds  = flag.Int("seconds", 10, "length of each workload's timed phase")
		trace    = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics from a traced run")
		scale    = flag.Float64("scale", 0.5, "dataset scale of the generated registry")
		repeat   = flag.Int("repeat", 1, "full sets to run; more than one also reports run-to-run spread against each metric's bound")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	ok := true
	var err error
	if *workload != "" {
		// The result line carries the verdict; the exit code only says
		// whether the benchmark itself ran.
		err = runOne(*workload, *seed, *scale, *seconds, *trace == 1)
	} else {
		ok, err = runAll(*seed, *scale, *seconds, *repeat)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

func printHeader(e *env, seconds int) {
	fmt.Printf("# predictd benchmark: seed %d, scale %g, %d s per workload, GOMAXPROCS %d, nproc %d, %s\n",
		e.seed, e.scale, seconds, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	fmt.Printf("# %s\n", e.flagLine)
	fmt.Printf("# prepare_s %.3f (harness cost: build, registry, ground truth, fitting the warm keys; in no metric)\n", e.prepareSec)
}

func printResult(res *result) {
	fmt.Printf("workload %s: attempted %d, failed %d\n", res.Workload, res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Printf("  FAILED %s\n", f)
	}
	for _, d := range endToEndMetrics {
		fmt.Printf("  %-28s %14.6g %s\n", d.name, res.EndToEnd[d.name], d.unit)
	}
	for _, name := range sortedKeys(res.Layer) {
		fmt.Printf("  %-28s %14.6g %s\n", name, res.Layer[name], layerUnit(name))
	}
	for _, name := range sortedKeys(res.Timings) {
		s := res.Timings[name]
		fmt.Printf("  timing %-21s p50 %-10.5g p95 %-10.5g max %-10.5g n %d\n", name, s.P50, s.P95, s.Max, s.N)
	}
	if res.PredictionsSHA256 != "" {
		fmt.Printf("  predictions_sha256 %s\n", res.PredictionsSHA256)
	}
}

func printLayers(l *layerReport) {
	fmt.Println("traced run (per-layer metrics, measured in the benchmark's own process):")
	for _, name := range perLayerNames {
		v, ok := l.Metrics[name]
		if !ok {
			continue // the child's counters and the client group are printed per workload
		}
		line := fmt.Sprintf("  %-34s %14.6g %s", name, v, layerUnit(name))
		if s, ok := l.Timings[name]; ok {
			line += fmt.Sprintf("   (p95 %.5g, n %d)", s.P95, s.N)
		}
		fmt.Println(line)
	}
	fmt.Println("  warm chain, medians: extrapolate -> Service.Predict -> Handler -> loopback")
	fmt.Printf("    %.1f us -> %.1f us -> %.1f us -> %.1f us on one P; Service.Predict beside an idle second P %.1f us\n",
		l.Timings["core.blend_extrapolation_whatif_us"].P50, l.Metrics["service.predict_warm_us"],
		l.Metrics["service.handler_warm_us"], l.Timings["http.loopback_roundtrip_us"].P50,
		l.Timings["service.predict_warm_idle_p_us"].P50)
	for _, d := range snapshotDatasets {
		c := l.CriticalShareUs[d.name]
		fmt.Printf("  bsp.critical_share_us on %-5s %10.1f us   (%d vertices, %d edges)\n", d.name, c.P50, c.Vertices, c.Edges)
	}
}

func printResultLine(res *result, defs []metricDef, values map[string]float64) error {
	metrics, err := metricValues(defs, values)
	if err != nil {
		return err
	}
	line, err := json.Marshal(resultLine{
		Correct:   res.Failed == 0,
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runOne is the driver's form: one workload, ending with the result line.
// With trace it adds the traced run and reports the per-layer metrics.
func runOne(name string, seed uint64, scale float64, seconds int, trace bool) error {
	if !slices.Contains(workloadNames, name) {
		return fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	e, err := prepare(seed, scale, outDir)
	if err != nil {
		return err
	}
	printHeader(e, seconds)
	res, err := runWorkload(e, name, seconds, fullSizing)
	if err != nil {
		return err
	}
	printResult(res)
	if !trace {
		return printResultLine(res, endToEndMetrics, res.EndToEnd)
	}
	layers, err := tracedRun(e)
	if err != nil {
		return err
	}
	printLayers(layers)
	if err := writeTrace(filepath.Join(outDir, "trace.json"), layers.spans); err != nil {
		return err
	}
	for k, v := range res.Layer {
		layers.Metrics[k] = v
	}
	return printResultLine(res, perLayerMetrics(), layers.Metrics)
}

// report is what results.json holds: one full set.
type report struct {
	Seed        uint64         `json:"seed"`
	Scale       float64        `json:"scale"`
	Seconds     int            `json:"seconds"`
	Environment map[string]any `json:"environment"`
	PrepareSec  float64        `json:"prepare_s"`
	Workloads   []*result      `json:"workloads"`
	Layers      *layerReport   `json:"layers,omitempty"`
}

// runAll runs every workload (repeat times over) and then the traced
// run, prints every metric, and writes results.json and trace.json. It
// reports false when any operation failed or, with repeat > 1, when a
// metric's run-to-run deviation exceeds its bound.
func runAll(seed uint64, scale float64, seconds, repeat int) (bool, error) {
	ok := true
	var sets [][]*result
	var e *env
	for set := range repeat {
		var err error
		if e, err = prepare(seed, scale, outDir); err != nil {
			return false, err
		}
		if repeat > 1 {
			fmt.Printf("# set %d of %d\n", set+1, repeat)
		}
		printHeader(e, seconds)
		var results []*result
		for _, name := range workloadNames {
			res, err := runWorkload(e, name, seconds, fullSizing)
			if err != nil {
				return false, err
			}
			printResult(res)
			ok = ok && res.Failed == 0
			results = append(results, res)
		}
		sets = append(sets, results)
	}
	start := time.Now()
	layers, err := tracedRun(e)
	if err != nil {
		return false, err
	}
	printLayers(layers)
	fmt.Printf("# traced run took %.1f s\n", time.Since(start).Seconds())
	if err := writeTrace(filepath.Join(outDir, "trace.json"), layers.spans); err != nil {
		return false, err
	}
	rep := report{
		Seed: seed, Scale: scale, Seconds: seconds, Environment: environment(),
		PrepareSec: e.prepareSec, Workloads: sets[len(sets)-1], Layers: layers,
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(filepath.Join(outDir, "results.json"), data, 0o644); err != nil {
		return false, err
	}
	if repeat > 1 {
		within, err := printRepeatability(sets)
		if err != nil {
			return false, err
		}
		ok = ok && within
	}
	return ok, nil
}

// environment records what the numbers were measured on.
func environment() map[string]any {
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go_version": runtime.Version(),
	}
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	return slices.Sorted(maps.Keys(m))
}
