package experiments

import (
	"fmt"

	"predict/internal/algorithms"
	"predict/internal/core"
	"predict/internal/features"
	"predict/internal/sampling"
)

// AblationNoTransform isolates the transform function (§1.1's motivating
// example): PageRank iteration-prediction error at sr = 0.1 with and
// without scaling the convergence threshold on the sample run.
func (l *Lab) AblationNoTransform() (*Result, error) {
	t := &Result{
		ID:     "Ablation: transform function",
		Title:  "PageRank iteration error at sr=0.1, with vs without the transform function",
		Header: []string{"dataset", "actual iters", "with transform", "without transform"},
	}
	const ratio = 0.1
	for _, prefix := range []string{"LJ", "Wiki", "UK", "TW"} {
		g, err := l.Graph(prefix)
		if err != nil {
			return nil, err
		}
		pr := pageRank(0.001, g.NumVertices())
		actual, err := l.Actual(pr, prefix)
		if err != nil {
			return nil, err
		}
		with, s, err := l.sampleRun(pr, g, ratio, sampling.BiasedRandomJump, 17)
		if err != nil {
			return nil, err
		}
		// Without: run the untransformed algorithm on the same sample.
		without, err := pr.Run(s.Graph, l.BSP())
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			prefix,
			fmt.Sprintf("%d", actual.Iterations),
			fmt.Sprintf("%d (err %+.2f)", with.Iterations,
				core.SignedRelativeError(float64(with.Iterations), float64(actual.Iterations))),
			fmt.Sprintf("%d (err %+.2f)", without.Iterations,
				core.SignedRelativeError(float64(without.Iterations), float64(actual.Iterations))),
		})
	}
	t.Notes = append(t.Notes,
		"without tau scaling, the sample run over-iterates: per-vertex deltas on a 10x smaller graph sit 10x above the absolute threshold")
	return t, nil
}

// AblationUniformSampling compares BRJ against structure-blind uniform
// vertex sampling for iteration prediction (PageRank, eps = 0.001).
func (l *Lab) AblationUniformSampling() (*Result, error) {
	t := &Result{
		ID:     "Ablation: sampling structure",
		Title:  "PageRank iteration error at sr=0.1: BRJ vs uniform vertex sampling",
		Header: []string{"dataset", "BRJ err", "uniform err", "BRJ sample WCC", "uniform sample WCC"},
	}
	const ratio = 0.1
	for _, prefix := range []string{"Wiki", "UK", "TW"} {
		g, err := l.Graph(prefix)
		if err != nil {
			return nil, err
		}
		pr := pageRank(0.001, g.NumVertices())
		actual, err := l.Actual(pr, prefix)
		if err != nil {
			return nil, err
		}
		row := []string{prefix}
		var wccs []string
		for _, method := range []sampling.Method{sampling.BiasedRandomJump, sampling.UniformVertex} {
			ri, s, err := l.sampleRun(pr, g, ratio, method, 23)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%+.2f",
				core.SignedRelativeError(float64(ri.Iterations), float64(actual.Iterations))))
			fid := sampling.MeasureFidelity(g, s)
			wccs = append(wccs, fmt.Sprintf("%.2f", fid.ConnectivitySample))
		}
		row = append(row, wccs...)
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"uniform sampling shreds connectivity, breaking the propagation structure convergence depends on")
	return t, nil
}

// AblationVertexOnlyExtrapolation isolates the two-factor extrapolator:
// remote-message-byte prediction for top-k with the proper eE factor vs
// extrapolating everything by eV.
func (l *Lab) AblationVertexOnlyExtrapolation() (*Result, error) {
	t := &Result{
		ID:     "Ablation: extrapolation factors",
		Title:  "Top-k remote message bytes at sr=0.1: eE vs vertices-only extrapolation",
		Header: []string{"dataset", "err with eE", "err with eV only"},
	}
	const ratio = 0.1
	for _, prefix := range []string{"Wiki", "UK"} {
		g, err := l.Graph(prefix)
		if err != nil {
			return nil, err
		}
		tk := topK(g.NumVertices())
		actual, err := l.Actual(tk, prefix)
		if err != nil {
			return nil, err
		}
		ri, s, err := l.sampleRun(tk, g, ratio, sampling.BiasedRandomJump, 29)
		if err != nil {
			return nil, err
		}
		actualBytes, sampleBytes := remoteBytes(actual), remoteBytes(ri)
		scale, err := features.NewScale(g.NumVertices(), s.Graph.NumVertices(),
			g.NumEdges(), s.Graph.NumEdges())
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			prefix,
			fmt.Sprintf("%+.2f", core.SignedRelativeError(sampleBytes*scale.EE, actualBytes)),
			fmt.Sprintf("%+.2f", core.SignedRelativeError(sampleBytes*scale.EV, actualBytes)),
		})
	}
	t.Notes = append(t.Notes,
		"walk-based samples over-sample edges relative to vertices, so eV underestimates message traffic")
	return t, nil
}

// runtimeAblation runs the predictor twice with different options and
// reports both runtime errors.
func (l *Lab) runtimeAblation(id, title string, prefix string,
	optA, optB string, mutate func(*core.Options, bool)) (*Result, error) {
	g, err := l.Graph(prefix)
	if err != nil {
		return nil, err
	}
	sc := algorithms.NewSemiClustering()
	actual, err := l.Actual(sc, prefix)
	if err != nil {
		return nil, err
	}
	t := &Result{
		ID:     id,
		Title:  title,
		Header: []string{"variant", "predicted s", "actual s", "err", "R2"},
	}
	for _, variant := range []bool{false, true} {
		opts := core.Options{
			Sampling:       sampling.Options{Ratio: 0.1, Seed: l.cfg.Seed + 31},
			BSP:            l.BSP(),
			TrainingRatios: trainingRatios,
		}
		mutate(&opts, variant)
		pred, err := core.New(opts).Predict(sc, g)
		if err != nil {
			return nil, err
		}
		ev := core.Evaluate(pred, actual)
		label := optA
		if variant {
			label = optB
		}
		t.Rows = append(t.Rows, []string{
			label,
			fmt.Sprintf("%.0f", ev.PredictedSeconds),
			fmt.Sprintf("%.0f", ev.ActualSeconds),
			fmt.Sprintf("%+.2f", ev.RuntimeError),
			fmt.Sprintf("%.2f", pred.Model.R2()),
		})
	}
	return t, nil
}

// AblationNoCriticalPath compares critical-path feature scaling against
// mean-worker scaling for semi-clustering runtime prediction on UK.
func (l *Lab) AblationNoCriticalPath() (*Result, error) {
	return l.runtimeAblation("Ablation: critical path",
		"Semi-clustering runtime on UK: critical-path share vs mean-worker features",
		"UK", "critical-path share", "mean worker",
		func(o *core.Options, variant bool) {
			if variant {
				o.Mode = features.ModeMeanWorker
			} else {
				o.Mode = features.ModeCriticalShare
			}
		})
}

// AblationNoFeatureSelection compares forward selection against fitting
// the full feature pool.
func (l *Lab) AblationNoFeatureSelection() (*Result, error) {
	return l.runtimeAblation("Ablation: feature selection",
		"Semi-clustering runtime on UK: forward selection vs all features",
		"UK", "forward selection", "all features",
		func(o *core.Options, variant bool) {
			o.CostModel.DisableSelection = variant
		})
}
