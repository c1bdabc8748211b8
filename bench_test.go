package predict_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§5), plus the DESIGN.md ablations and micro-benchmarks of
// the substrates. Each figure/table benchmark regenerates the full
// experiment — a figure sweeps the paper's six sampling ratios, 0.01 to
// 0.25 — at a reduced dataset scale (set PREDICT_BENCH_SCALE to override)
// and reports the headline error metric at sr = 0.1 as a custom benchmark
// metric, so `go test -bench` output doubles as a compact reproduction
// report.

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"testing"

	"predict/internal/algorithms"
	"predict/internal/bsp"
	"predict/internal/cluster"
	"predict/internal/core"
	"predict/internal/experiments"
	"predict/internal/gen"
	"predict/internal/regress"
	"predict/internal/sampling"
)

// benchScale resolves the benchmark dataset scale from the
// PREDICT_BENCH_SCALE environment variable (default 0.15, documented in
// the README). Malformed values — anything that is not a positive finite
// float — fail the benchmark loudly: silently falling back to the default
// would make a mistyped variable measure the wrong workload without
// anyone noticing.
func benchScale(tb testing.TB) float64 {
	tb.Helper()
	v, err := parseBenchScale(os.Getenv("PREDICT_BENCH_SCALE"))
	if err != nil {
		tb.Fatal(err)
	}
	return v
}

func parseBenchScale(s string) (float64, error) {
	if s == "" {
		return 0.15, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("malformed PREDICT_BENCH_SCALE=%q: want a positive float", s)
	}
	return v, nil
}

func TestBenchScale(t *testing.T) {
	for _, c := range []struct {
		env     string
		want    float64
		wantErr bool
	}{
		{"", 0.15, false},
		{"0.08", 0.08, false},
		{"1", 1, false},
		{"bogus", 0, true},
		{"0", 0, true},
		{"-0.1", 0, true},
		{"NaN", 0, true},
		{"+Inf", 0, true},
	} {
		got, err := parseBenchScale(c.env)
		if (err != nil) != c.wantErr {
			t.Errorf("PREDICT_BENCH_SCALE=%q: err = %v, wantErr %v", c.env, err, c.wantErr)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("PREDICT_BENCH_SCALE=%q = %v, want %v", c.env, got, c.want)
		}
	}
}

func benchLab(tb testing.TB) *experiments.Lab {
	return experiments.NewLab(experiments.Config{Scale: benchScale(tb), Seed: 7})
}

// meanAbsAt returns the mean absolute series value at the given ratio.
func meanAbsAt(figs []*experiments.Result, ratio float64) float64 {
	var sum float64
	n := 0
	for _, f := range figs {
		for i, r := range f.Ratios {
			for _, s := range f.Series {
				if v := s.Values[i]; r == ratio && !math.IsNaN(v) && !math.IsInf(v, 0) {
					sum += math.Abs(v)
					n++
				}
			}
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

func benchFigure(b *testing.B, run func(lab *experiments.Lab) ([]*experiments.Result, error)) {
	b.Helper()
	var lastErr float64
	for i := 0; i < b.N; i++ {
		lab := benchLab(b)
		figs, err := run(lab)
		if err != nil {
			b.Fatal(err)
		}
		lastErr = meanAbsAt(figs, 0.10)
	}
	b.ReportMetric(lastErr, "mean|err|@sr0.1")
}

func benchTable(b *testing.B, run func(lab *experiments.Lab) (*experiments.Result, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		lab := benchLab(b)
		if _, err := run(lab); err != nil {
			b.Fatal(err)
		}
	}
}

// ----- Figures -----------------------------------------------------------

func BenchmarkFigure4PageRankIterations(b *testing.B) {
	benchFigure(b, func(l *experiments.Lab) ([]*experiments.Result, error) { return l.Figure4() })
}

func BenchmarkFigure5SemiClusteringIterations(b *testing.B) {
	benchFigure(b, func(l *experiments.Lab) ([]*experiments.Result, error) { return l.Figure5() })
}

func BenchmarkFigure6TopKFeatures(b *testing.B) {
	benchFigure(b, func(l *experiments.Lab) ([]*experiments.Result, error) { return l.Figure6() })
}

func BenchmarkFigure7SemiClusteringRuntime(b *testing.B) {
	benchFigure(b, func(l *experiments.Lab) ([]*experiments.Result, error) { return l.Figure7() })
}

func BenchmarkFigure8TopKRuntime(b *testing.B) {
	benchFigure(b, func(l *experiments.Lab) ([]*experiments.Result, error) { return l.Figure8() })
}

func BenchmarkFigure9SamplingSensitivity(b *testing.B) {
	benchFigure(b, func(l *experiments.Lab) ([]*experiments.Result, error) { return l.Figure9() })
}

func BenchmarkExtendedConnectedComponents(b *testing.B) {
	benchFigure(b, func(l *experiments.Lab) ([]*experiments.Result, error) {
		return l.FigureConnectedComponents()
	})
}

func BenchmarkExtendedNeighborhoodEstimation(b *testing.B) {
	benchFigure(b, func(l *experiments.Lab) ([]*experiments.Result, error) {
		return l.FigureNeighborhoodEstimation()
	})
}

// ----- Tables ------------------------------------------------------------

func BenchmarkTable2Datasets(b *testing.B) {
	benchTable(b, func(l *experiments.Lab) (*experiments.Result, error) { return l.Table2() })
}

func BenchmarkTable3Overhead(b *testing.B) {
	benchTable(b, func(l *experiments.Lab) (*experiments.Result, error) { return l.Table3() })
}

func BenchmarkUpperBounds(b *testing.B) {
	benchTable(b, func(l *experiments.Lab) (*experiments.Result, error) { return l.UpperBounds() })
}

func BenchmarkMemoryLimits(b *testing.B) {
	// The OOM reproduction needs the full-size Twitter stand-in; cap the
	// work by running at the default bench scale where the budget is
	// scaled too (the outcome column is exercised either way).
	benchTable(b, func(l *experiments.Lab) (*experiments.Result, error) { return l.MemoryLimits() })
}

// ----- Ablations ---------------------------------------------------------

func BenchmarkAblationNoTransform(b *testing.B) {
	benchTable(b, func(l *experiments.Lab) (*experiments.Result, error) { return l.AblationNoTransform() })
}

func BenchmarkAblationUniformSampling(b *testing.B) {
	benchTable(b, func(l *experiments.Lab) (*experiments.Result, error) { return l.AblationUniformSampling() })
}

func BenchmarkAblationVertexOnlyExtrapolation(b *testing.B) {
	benchTable(b, func(l *experiments.Lab) (*experiments.Result, error) {
		return l.AblationVertexOnlyExtrapolation()
	})
}

func BenchmarkAblationNoCriticalPath(b *testing.B) {
	benchTable(b, func(l *experiments.Lab) (*experiments.Result, error) { return l.AblationNoCriticalPath() })
}

func BenchmarkAblationNoFeatureSelection(b *testing.B) {
	benchTable(b, func(l *experiments.Lab) (*experiments.Result, error) {
		return l.AblationNoFeatureSelection()
	})
}

// ----- Substrate micro-benchmarks ---------------------------------------

// BenchmarkBSPPageRankSuperstep measures engine throughput: simulated
// PageRank supersteps over a mid-size scale-free graph.
func BenchmarkBSPPageRankSuperstep(b *testing.B) {
	g := gen.BarabasiAlbert(20000, 8, 0.4, 3)
	o := cluster.DefaultOracle()
	o.MemoryBudgetBytes = 0
	cfg := bsp.Config{Workers: 8, Oracle: &o, Seed: 1}
	pr := algorithms.NewPageRank()
	pr.Tau = 0 // run to MaxIterations
	pr.MaxIterations = 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pr.Run(g, cfg); err != nil && ri(err) {
			b.Fatal(err)
		}
	}
	edgesPerOp := float64(g.NumEdges()) * 10
	b.ReportMetric(edgesPerOp*float64(b.N)/b.Elapsed().Seconds(), "edge-msgs/s")
}

// benchSampleRun measures one cold-fit sample run: alg, transformed for the
// sample, on a 0.10 Biased Random Jump sample of the Wiki stand-in under
// the service's cluster (8 workers, default oracle). allocs/op over the
// reported msgs/op is the allocations-per-message figure DESIGN.md §7
// tracks for the variable-size-message programs.
func benchSampleRun(b *testing.B, configure func(n int) algorithms.Algorithm) {
	b.Helper()
	ds, err := gen.ByPrefix("Wiki")
	if err != nil {
		b.Fatal(err)
	}
	g := ds.Generate(benchScale(b), 1)
	s, err := sampling.Sample(g, sampling.BiasedRandomJump, sampling.Options{Ratio: 0.10, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	alg := configure(g.NumVertices()).Transformed(s.VertexRatio)
	o := cluster.DefaultOracle()
	cfg := bsp.Config{Workers: bsp.DefaultWorkers, Oracle: &o}
	var msgs int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		info, err := alg.Run(s.Graph, cfg)
		if err != nil {
			b.Fatal(err)
		}
		msgs = 0
		for _, sp := range info.Profile.Supersteps {
			msgs += sp.Total().Messages()
		}
	}
	b.ReportMetric(float64(msgs), "msgs/op")
}

// BenchmarkSampleRunPR measures a PageRank sample run: the combiner path
// of the engine, where every in-edge is one fold.
func BenchmarkSampleRunPR(b *testing.B) {
	benchSampleRun(b, func(n int) algorithms.Algorithm {
		pr := algorithms.NewPageRank()
		pr.Tau = algorithms.TauForTolerance(0.001, n)
		return pr
	})
}

// BenchmarkSampleRunSC measures a semi-clustering sample run.
func BenchmarkSampleRunSC(b *testing.B) {
	benchSampleRun(b, func(int) algorithms.Algorithm { return algorithms.NewSemiClustering() })
}

// BenchmarkSampleRunTopK measures a top-k ranking sample run (PageRank
// pre-run included, as in a fit).
func BenchmarkSampleRunTopK(b *testing.B) {
	benchSampleRun(b, func(n int) algorithms.Algorithm {
		tk := algorithms.NewTopKRanking()
		tk.PageRank.Tau = algorithms.TauForTolerance(0.001, n)
		return tk
	})
}

// BenchmarkFitSecondAlgorithm is the cold_fit_second_algorithm scenario:
// the cost of fitting CC, top-k and SC on the Wiki stand-in right after a
// PageRank fit on the same graph — with the same sample seed, so the fit
// finds its samples (and top-k its input ranks) remembered on the graph,
// against a fresh seed, where it draws and derives everything itself. Both
// are reported the way the paper reports planning cost (Table 3): the
// fit's wall time as a fraction of the simulated actual run it predicts.
// The PageRank fit that precedes every timed fit is outside the timer.
func BenchmarkFitSecondAlgorithm(b *testing.B) {
	ds, err := gen.ByPrefix("Wiki")
	if err != nil {
		b.Fatal(err)
	}
	g := ds.Generate(benchScale(b), 1)
	tau := algorithms.TauForTolerance(0.001, g.NumVertices())
	pr := algorithms.NewPageRank()
	pr.Tau = tau
	topk := algorithms.NewTopKRanking()
	topk.PageRank.Tau = tau
	o := cluster.DefaultOracle()
	cfg := bsp.Config{Workers: bsp.DefaultWorkers, Oracle: &o}
	fit := func(alg algorithms.Algorithm, seed uint64) {
		b.Helper()
		p := core.New(core.Options{
			Sampling:       sampling.Options{Ratio: 0.10, Seed: seed},
			BSP:            cfg,
			TrainingRatios: []float64{0.05, 0.10, 0.15, 0.20},
		})
		if _, err := p.Fit(alg, g); err != nil {
			b.Fatal(err)
		}
	}
	for _, second := range []struct {
		name string
		alg  algorithms.Algorithm
	}{
		{"CC", algorithms.NewConnectedComponents()},
		{"TOPK", topk},
		{"SC", algorithms.NewSemiClustering()},
	} {
		actual, err := second.alg.Run(g, cfg)
		if err != nil {
			b.Fatal(err)
		}
		actualSeconds := actual.Profile.TotalSeconds()
		for _, fresh := range []bool{false, true} {
			name := second.name + "/same_seed"
			if fresh {
				name = second.name + "/fresh_seed"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					// A new seed pair per iteration: nothing an earlier
					// iteration left on g is found again.
					seed := uint64(1000 + 2*i)
					b.StopTimer()
					fit(pr, seed)
					b.StartTimer()
					if fresh {
						seed++
					}
					fit(second.alg, seed)
				}
				b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)/actualSeconds, "fit/actual-run")
			})
		}
	}
}

// ri reports whether err is a real failure (ErrNoConvergence is expected
// when running a fixed number of supersteps).
func ri(err error) bool {
	return err != nil && !isNoConvergence(err)
}

func isNoConvergence(err error) bool {
	type unwrapper interface{ Unwrap() error }
	for err != nil {
		if err == bsp.ErrNoConvergence {
			return true
		}
		u, ok := err.(unwrapper)
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// BenchmarkSamplingBRJ measures Biased Random Jump sampling throughput.
func BenchmarkSamplingBRJ(b *testing.B) {
	g := gen.BarabasiAlbert(50000, 8, 0.4, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sampling.Sample(g, sampling.BiasedRandomJump,
			sampling.Options{Ratio: 0.1, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegressionForwardSelect measures cost-model fitting.
func BenchmarkRegressionForwardSelect(b *testing.B) {
	const rows = 200
	X := make([][]float64, rows)
	y := make([]float64, rows)
	for i := range X {
		f := float64(i)
		X[i] = []float64{f, f * 2, f * f, 100 - f, f + 7, f * 3, 8}
		y[i] = 0.5 + 3*f + 0.01*f*f
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := regress.ForwardSelect(X, y, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphGeneration measures stand-in generation cost.
func BenchmarkGraphGeneration(b *testing.B) {
	ds, err := gen.ByPrefix("Wiki")
	if err != nil {
		b.Fatal(err)
	}
	scale := benchScale(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := ds.Generate(scale, uint64(i))
		if g.NumVertices() == 0 {
			b.Fatal("empty graph")
		}
	}
}
