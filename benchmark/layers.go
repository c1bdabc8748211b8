package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"predict/internal/algorithms"
	"predict/internal/bsp"
	"predict/internal/core"
	"predict/internal/costmodel"
	"predict/internal/features"
	"predict/internal/graph"
	"predict/internal/history"
	"predict/internal/sampling"
	"predict/internal/service"
)

// The traced run measures single layers in the benchmark's own process:
// it calls each layer's public functions and records a span around every
// call. Nothing inside the program is instrumented. The stage datasets
// are fixed: per-algorithm stages run on wiki, the text loader on
// tw_text, and the warm chain over the what-if request list.
const stageDataset = "wiki"

// layerReport is what the traced run measured.
type layerReport struct {
	Metrics map[string]float64 `json:"metrics"`
	Timings map[string]summary `json:"timings"`
	// CriticalShareUs is bsp.critical_share_us per dataset, beside the
	// dataset's size: the warm path's dataset-size dependence.
	CriticalShareUs map[string]datasetCost `json:"critical_share_us_by_dataset"`
	spans           []span
	// fitted and records are the 12 warm keys' models as a warm start
	// rebuilds them from the prepared history, and the records they came from.
	fitted  []*core.Fitted
	records []history.Record
}

type datasetCost struct {
	Vertices int     `json:"vertices"`
	Edges    int64   `json:"edges"`
	P50      float64 `json:"p50"`
}

// timed calls fn(0), ..., fn(n-1) and returns each call's duration in unit.
func timed(n int, unit time.Duration, fn func(i int) error) ([]float64, error) {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return nil, err
		}
		out[i] = float64(time.Since(t0)) / float64(unit)
	}
	return out, nil
}

// allocsPer is the mean heap allocations of one call to fn, over n calls
// (runtime.MemStats Mallocs deltas; the traced run is single-threaded).
func allocsPer(n int, fn func(i int) error) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range n {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), nil
}

// record stores a timing series under name and returns its median.
func (l *layerReport) record(name string, xs []float64) float64 {
	s := summarize(xs)
	l.Timings[name] = s
	l.Metrics[name] = s.P50
	return s.P50
}

// fitOptions are the options predictd fits a default request under.
func fitOptions(sampleSeed uint64, parallelism int) core.Options {
	return core.Options{
		Method:         sampling.BiasedRandomJump,
		Sampling:       sampling.Options{Ratio: 0.10, Seed: sampleSeed},
		BSP:            serviceCluster(),
		TrainingRatios: service.DefaultTrainingRatios,
		Parallelism:    parallelism,
	}
}

// stagedFit is core.FitContext recomposed from the layers' public
// functions, one span per call: sampling.Sample -> Transformed().Run ->
// features.FromProfile -> costmodel.Train. It follows FitContext's task
// order and seed derivation, so its model must equal FitContext's bit for
// bit; the traced run checks that.
func stagedFit(rec *recorder, alg algorithms.Algorithm, algName string, g *graph.Graph, opts core.Options) (*costmodel.Model, []*algorithms.RunInfo, error) {
	root := rec.begin("core.fit." + algName)
	defer rec.end(root)
	type task struct {
		ratio float64
		seed  uint64
	}
	tasks := []task{{opts.Sampling.Ratio, opts.Sampling.Seed}}
	for i, ratio := range opts.TrainingRatios {
		if ratio != opts.Sampling.Ratio {
			tasks = append(tasks, task{ratio, sampling.DeriveSeed(opts.Sampling.Seed, uint64(i))})
		}
	}
	runs := make([]*algorithms.RunInfo, len(tasks))
	var mainSample *sampling.Result
	for i, t := range tasks {
		sOpts := opts.Sampling
		sOpts.Ratio, sOpts.Seed = t.ratio, t.seed
		id := rec.begin("sampling.sample")
		s, err := sampling.Sample(g, opts.Method, sOpts)
		rec.end(id)
		if err != nil {
			return nil, nil, err
		}
		id = rec.begin("algorithms.sample_run." + algName)
		ri, err := alg.Transformed(s.VertexRatio).Run(s.Graph, opts.BSP)
		rec.end(id)
		if err != nil {
			return nil, nil, err
		}
		runs[i] = ri
		if i == 0 {
			mainSample = s
		}
	}
	training := make([]costmodel.TrainingRun, len(runs))
	for i, ri := range runs {
		id := rec.begin("features.from_profile")
		training[i] = costmodel.TrainingRun{Iters: features.FromProfile(ri.Profile, opts.Mode)}
		rec.end(id)
	}
	id := rec.begin("costmodel.train")
	model, err := costmodel.Train(training, opts.CostModel)
	rec.end(id)
	if err != nil {
		return nil, nil, err
	}
	id = rec.begin("bsp.critical_share")
	bsp.CriticalShareOf(mainSample.Graph, opts.BSP.Workers)
	rec.end(id)
	return model, runs, nil
}

// sameModel reports whether two models have bit-identical coefficients,
// intercept and fit quality.
func sameModel(a, b *costmodel.Model) bool {
	ca, ia := a.Coefficients()
	cb, ib := b.Coefficients()
	if len(ca) != len(cb) || math.Float64bits(ia) != math.Float64bits(ib) ||
		math.Float64bits(a.R2()) != math.Float64bits(b.R2()) {
		return false
	}
	for name, v := range ca {
		if w, ok := cb[name]; !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

// layersDir is where the traced run keeps its files.
func layersDir(e *env) string { return filepath.Join(e.outDir, "work", "layers") }

// tracedRun measures every per-layer metric that does not need the
// predictd child. Correctness failures (a staged fit that does not
// reproduce FitContext) are returned as errors.
func tracedRun(e *env) (*layerReport, error) {
	l := &layerReport{
		Metrics:         map[string]float64{},
		Timings:         map[string]summary{},
		CriticalShareUs: map[string]datasetCost{},
	}
	if err := os.MkdirAll(layersDir(e), 0o755); err != nil {
		return nil, err
	}
	var err error
	if l.fitted, l.records, err = warmModels(e); err != nil {
		return nil, err
	}
	rec := newRecorder(true)
	steps := []func(*env, *recorder) error{
		l.graphLayer, l.fitLayers, l.warmLayers, l.historyLayer, l.serviceLayers, l.traceOverhead,
	}
	for _, step := range steps {
		if err := step(e, rec); err != nil {
			return nil, err
		}
	}
	l.spans = rec.spans
	return l, nil
}

func (l *layerReport) graphLayer(e *env, _ *recorder) error {
	const passes = 3
	text := filepath.Join(e.corpus.dir, textDataset+".txt")
	xs, err := timed(passes, time.Millisecond, func(int) error {
		_, err := graph.LoadFile(text, graph.LoadOptions{})
		return err
	})
	if err != nil {
		return err
	}
	l.record("graph.load_text_ms", xs)

	// One pass reads all four snapshots: what set-up pays.
	readAll := func(int) error {
		for _, d := range snapshotDatasets {
			if _, err := graph.ReadSnapshotFile(filepath.Join(e.corpus.dir, d.name+".snap")); err != nil {
				return err
			}
		}
		return nil
	}
	if xs, err = timed(passes, time.Millisecond, readAll); err != nil {
		return err
	}
	l.record("graph.load_snapshot_ms", xs)
	if l.Metrics["graph.load_snapshot_allocs"], err = allocsPer(passes, readAll); err != nil {
		return err
	}
	xs, err = timed(passes, time.Millisecond, func(int) error {
		for _, d := range snapshotDatasets {
			if _, _, err := graph.OpenSnapshot(filepath.Join(e.corpus.dir, d.name+".snap")); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.record("graph.open_mmap_ms", xs)
	return nil
}

// fitLayers measures the cold path on the stage dataset: every algorithm
// fitted stage by stage under spans, and by FitContext sequentially and
// in parallel. All core.fit_* metrics are totals over the five
// algorithms: one cold_fit round's work on one dataset.
func (l *layerReport) fitLayers(e *env, rec *recorder) error {
	g := e.corpus.graphs[stageDataset]
	g.EnsureDegreeArtifacts()
	seed := newSampleSeeds(newRNG(e.seed, streamLayers), streamLayers).at(100)

	var fitTotal, parallelTotal float64
	var supersteps, messages float64
	var superstepUs []float64
	first := len(rec.spans)
	for _, name := range coldAlgorithms {
		alg, err := configuredAlgorithm(name, g.NumVertices())
		if err != nil {
			return err
		}
		reps := 3
		if name == "TOPK" || name == "SC" {
			reps = 1 // each costs as much as the other three together
		}
		var fit, parallel []float64
		for range reps {
			rec.nextRequest()
			runtime.GC()
			model, runs, err := stagedFit(rec, alg, name, g, fitOptions(seed, 1))
			if err != nil {
				return fmt.Errorf("staged %s fit: %w", name, err)
			}

			runtime.GC()
			t0 := time.Now()
			fitted, err := core.New(fitOptions(seed, 1)).FitContext(context.Background(), alg, g)
			if err != nil {
				return fmt.Errorf("FitContext %s: %w", name, err)
			}
			fit = append(fit, sinceMs(t0))
			if !sameModel(model, fitted.Model) {
				return fmt.Errorf("%s: the stage-by-stage composition does not reproduce FitContext's model coefficients", name)
			}

			runtime.GC()
			t0 = time.Now()
			fittedPar, err := core.New(fitOptions(seed, 0)).FitContext(context.Background(), alg, g)
			if err != nil {
				return fmt.Errorf("parallel FitContext %s: %w", name, err)
			}
			parallel = append(parallel, sinceMs(t0))
			if !sameModel(fitted.Model, fittedPar.Model) {
				return fmt.Errorf("%s: parallel FitContext's model differs from the sequential one", name)
			}

			if len(fit) == 1 { // counts come from the first repetition; they repeat
				for _, ri := range runs {
					supersteps += float64(ri.Iterations)
					for i := range ri.Profile.Supersteps {
						sp := &ri.Profile.Supersteps[i]
						messages += float64(sp.Total().Messages())
						superstepUs = append(superstepUs, float64(sp.WallNanos)/1e3)
					}
				}
			}
		}
		fitTotal += median(fit)
		parallelTotal += median(parallel)
	}

	// Stage metrics are per fit: a span name's durations summed within
	// each fit (its four sample pipelines), then the median over fits.
	// What a fit's stages account for is its root span minus the root's
	// self time.
	self := selfNanos(rec.spans)
	perFit := map[string]map[int]float64{}
	attributedBy := map[string][]float64{}
	for i, s := range rec.spans[first:] {
		ms := float64(s.End-s.Start) / 1e6
		if s.Parent < 0 {
			attributedBy[s.Name] = append(attributedBy[s.Name], ms-float64(self[first+i])/1e6)
			continue
		}
		if perFit[s.Name] == nil {
			perFit[s.Name] = map[int]float64{}
		}
		perFit[s.Name][s.Request] += ms
	}
	stageMetric := map[string]string{
		"sampling.sample":       "sampling.sample_ms",
		"features.from_profile": "features.from_profile_us",
		"costmodel.train":       "costmodel.train_ms",
	}
	for _, name := range coldAlgorithms {
		stageMetric["algorithms.sample_run."+name] = "algorithms.sample_run_ms." + name
	}
	for spanName, metric := range stageMetric {
		var xs []float64
		for _, ms := range perFit[spanName] {
			if metric == "features.from_profile_us" {
				ms *= 1e3
			}
			xs = append(xs, ms)
		}
		l.record(metric, xs)
	}
	var attributed float64
	for _, xs := range attributedBy {
		attributed += median(xs)
	}

	l.Metrics["core.fit_ms"] = fitTotal
	l.Metrics["core.fit_parallel_ms"] = parallelTotal
	l.Metrics["core.fit_unattributed_share"] = math.Abs(fitTotal-attributed) / fitTotal
	l.Metrics["parallel.fit_speedup"] = fitTotal / parallelTotal
	l.Metrics["bsp.supersteps"] = supersteps
	l.Metrics["bsp.messages"] = messages
	l.record("bsp.superstep_us", superstepUs)

	// Stages timed on their own: the induced subgraph inside
	// sampling.Sample, and the sampler's allocations.
	sOpts := sampling.Options{Ratio: 0.10, Seed: seed}
	sample, err := sampling.Sample(g, sampling.BiasedRandomJump, sOpts)
	if err != nil {
		return err
	}
	xs, err := timed(5, time.Millisecond, func(int) error {
		_, _, err := graph.InducedSubgraph(g, sample.Vertices)
		return err
	})
	if err != nil {
		return err
	}
	l.record("graph.induce_ms", xs)
	l.Metrics["sampling.sample_allocs"], err = allocsPer(5, func(int) error {
		_, err := sampling.Sample(g, sampling.BiasedRandomJump, sOpts)
		return err
	})
	return err
}
