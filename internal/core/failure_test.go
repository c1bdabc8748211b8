package core

import (
	"errors"
	"math"
	"testing"

	"predict/internal/algorithms"
	"predict/internal/bsp"
	"predict/internal/cluster"
	"predict/internal/features"
	"predict/internal/gen"
	"predict/internal/sampling"
)

// TestPredictPropagatesSampleRunOOM injects a tiny memory budget so the
// sample run itself blows the simulated cluster memory; the predictor must
// surface bsp.ErrOutOfMemory instead of fabricating a prediction.
func TestPredictPropagatesSampleRunOOM(t *testing.T) {
	g := gen.BarabasiAlbert(4000, 8, 0.4, 1)
	o := cluster.DefaultOracle()
	o.NoiseStdDev = 0
	o.MemoryBudgetBytes = 1000 // absurdly small
	p := New(Options{
		Sampling: sampling.Options{Ratio: 0.2, Seed: 2},
		BSP:      bsp.Config{Workers: 4, Oracle: &o},
	})
	pr := algorithms.NewPageRank()
	pr.Tau = algorithms.TauForTolerance(0.01, g.NumVertices())
	_, err := p.Predict(pr, g)
	if !errors.Is(err, bsp.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

// TestPredictPropagatesNonConvergence injects a superstep cap too small
// for the sample run to converge.
func TestPredictPropagatesNonConvergence(t *testing.T) {
	g := gen.BarabasiAlbert(4000, 8, 0.4, 1)
	pr := algorithms.NewPageRank()
	pr.Tau = 1e-15 // unreachable threshold
	pr.MaxIterations = 5
	p := New(testOptions(0.2))
	_, err := p.Predict(pr, g)
	if !errors.Is(err, bsp.ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
}

// TestPredictTrainingRatioFailurePropagates injects a failing training
// ratio (out of range) to exercise the training-sample-run error path.
func TestPredictTrainingRatioFailurePropagates(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 6, 0.4, 1)
	pr := algorithms.NewPageRank()
	pr.Tau = algorithms.TauForTolerance(0.01, g.NumVertices())
	opts := testOptions(0.1)
	opts.TrainingRatios = []float64{0.1, 7.5} // invalid ratio
	_, err := New(opts).Predict(pr, g)
	if err == nil {
		t.Fatal("invalid training ratio accepted")
	}
}

// TestPredictModeVariants exercises the ablation feature modes end to end.
func TestPredictModeVariants(t *testing.T) {
	g := gen.BarabasiAlbert(4000, 6, 0.4, 7)
	pr := algorithms.NewPageRank()
	pr.Tau = algorithms.TauForTolerance(0.001, g.NumVertices())
	actual, err := pr.Run(g, testEnv())
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []features.Mode{
		features.ModeCriticalShare, features.ModeMeanWorker,
	} {
		opts := testOptions(0.15)
		opts.Mode = mode
		pred, err := New(opts).Predict(pr, g)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		ev := Evaluate(pred, actual)
		if math.Abs(ev.RuntimeError) > 1.0 {
			t.Errorf("mode %v: runtime error %+.2f out of band", mode, ev.RuntimeError)
		}
	}
}

// TestPredictSemiClusteringEndToEnd covers the symmetrizing-algorithm path
// (share consistency) end to end.
func TestPredictSemiClusteringEndToEnd(t *testing.T) {
	ds, err := gen.ByPrefix("UK")
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Generate(0.08, 3)
	sc := algorithms.NewSemiClustering()
	pred, err := New(testOptions(0.15)).Predict(sc, g)
	if err != nil {
		t.Fatalf("Predict(SC): %v", err)
	}
	actual, err := sc.Run(g, testEnv())
	if err != nil {
		t.Fatal(err)
	}
	ev := Evaluate(pred, actual)
	if math.Abs(ev.RuntimeError) > 0.9 {
		t.Errorf("SC runtime error %+.2f out of band (pred %.0fs, actual %.0fs)",
			ev.RuntimeError, ev.PredictedSeconds, ev.ActualSeconds)
	}
}
