package experiments

import (
	"fmt"

	"predict/internal/algorithms"
	"predict/internal/core"
	"predict/internal/costmodel"
	"predict/internal/features"
	"predict/internal/graph"
	"predict/internal/sampling"
)

// iterationErrors runs alg on a sample of g at each sweep ratio, the i-th
// drawn with seed offset i*stride, and returns each sample run's signed
// iteration error against actual. each, when non-nil, also sees every
// sample run and its sample; label names the sweep in progress lines and
// errors.
func (l *Lab) iterationErrors(label string, alg algorithms.Algorithm, g *graph.Graph,
	actual *algorithms.RunInfo, method sampling.Method, stride uint64,
	each func(*algorithms.RunInfo, *sampling.Result) error) ([]float64, error) {
	out := make([]float64, len(sweepRatios))
	for i, ratio := range sweepRatios {
		ri, s, err := l.sampleRun(alg, g, ratio, method, uint64(i)*stride)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", label, err)
		}
		out[i] = core.SignedRelativeError(float64(ri.Iterations), float64(actual.Iterations))
		l.progressf("%s ratio %.2f: sample %d vs actual %d iterations (err %+.2f)",
			label, ratio, ri.Iterations, actual.Iterations, out[i])
		if each != nil {
			if err := each(ri, s); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// iterationErrorSweep runs, for each dataset and sampling ratio, a
// transformed sample run and reports the signed relative error of its
// iteration count against the actual run's.
func (l *Lab) iterationErrorSweep(id, title string, mkAlg func(n int) algorithms.Algorithm,
	prefixes []string, method sampling.Method) (*Result, error) {
	fig := &Result{ID: id, Title: title, YLabel: "signed relative error, iterations", Ratios: sweepRatios}
	for _, prefix := range prefixes {
		g, err := l.Graph(prefix)
		if err != nil {
			return nil, err
		}
		alg := mkAlg(g.NumVertices())
		actual, err := l.Actual(alg, prefix)
		if err != nil {
			return nil, err
		}
		errs, err := l.iterationErrors(id+" "+prefix, alg, g, actual, method, 131, nil)
		if err != nil {
			return nil, err
		}
		fig.Series = append(fig.Series, Series{Label: prefix, Values: errs})
	}
	return fig, nil
}

// Figure4 reproduces "Predicting iterations for PageRank" for tolerance
// levels ε = 0.01 and ε = 0.001 on all four datasets with BRJ sampling.
// Paper shape: ≲20% error at sr = 0.1 for the scale-free graphs (ε=0.01),
// below ~10% for ε = 0.001; LiveJournal is the outlier.
func (l *Lab) Figure4() ([]*Result, error) {
	var out []*Result
	for _, eps := range []float64{0.01, 0.001} {
		fig, err := l.iterationErrorSweep(
			"Figure 4",
			fmt.Sprintf("Predicting iterations for PageRank, eps=%g", eps),
			func(n int) algorithms.Algorithm { return pageRank(eps, n) },
			[]string{"LJ", "Wiki", "UK", "TW"},
			sampling.BiasedRandomJump,
		)
		if err != nil {
			return nil, err
		}
		fig.Notes = append(fig.Notes,
			"paper: <=20% at sr=0.1 for scale-free graphs (eps=0.01); <=10% for eps=0.001; LJ worst")
		out = append(out, fig)
	}
	return out, nil
}

// Figure5 reproduces "Predicting iterations for semi-clustering" for
// τ = 0.01 and τ = 0.001 on LJ, Wiki and UK (Twitter exceeds cluster
// memory, §5 "Memory Limits").
func (l *Lab) Figure5() ([]*Result, error) {
	var out []*Result
	for _, tau := range []float64{0.01, 0.001} {
		fig, err := l.iterationErrorSweep(
			"Figure 5",
			fmt.Sprintf("Predicting iterations for semi-clustering, tau=%g", tau),
			func(int) algorithms.Algorithm {
				sc := algorithms.NewSemiClustering()
				sc.Tau = tau
				return sc
			},
			[]string{"LJ", "Wiki", "UK"},
			sampling.BiasedRandomJump,
		)
		if err != nil {
			return nil, err
		}
		fig.Notes = append(fig.Notes,
			"paper: <=20% at sr=0.1 for the web graphs; LJ higher variability; no TW (out of memory)")
		out = append(out, fig)
	}
	return out, nil
}

// Figure6 reproduces the top-k ranking feature predictions: iteration
// error (top panel) and remote-message-byte error (bottom panel) at
// τ = 0.001.
func (l *Lab) Figure6() ([]*Result, error) {
	iters := &Result{
		ID:     "Figure 6 (top)",
		Title:  "Predicting iterations for top-k ranking, tau=0.001",
		YLabel: "signed relative error, iterations",
		Ratios: sweepRatios,
		Notes:  []string{"paper: below 35% for scale-free graphs; LJ over-estimates up to 1.5x"},
	}
	bytes := &Result{
		ID:     "Figure 6 (bottom)",
		Title:  "Predicting remote message bytes for top-k ranking, tau=0.001",
		YLabel: "signed relative error, remote message bytes",
		Ratios: sweepRatios,
		Notes:  []string{"paper: below 10% for scale-free graphs; LJ ~40%"},
	}
	for _, prefix := range []string{"LJ", "Wiki", "UK"} {
		g, err := l.Graph(prefix)
		if err != nil {
			return nil, err
		}
		tk := topK(g.NumVertices())
		actual, err := l.Actual(tk, prefix)
		if err != nil {
			return nil, err
		}
		actualRemBytes := remoteBytes(actual)
		sBytes := Series{Label: prefix}
		// Extrapolate each sample run's remote bytes with the edge factor.
		errs, err := l.iterationErrors("Figure 6 "+prefix, tk, g, actual, sampling.BiasedRandomJump, 269,
			func(ri *algorithms.RunInfo, s *sampling.Result) error {
				scale, err := features.NewScale(g.NumVertices(), s.Graph.NumVertices(),
					g.NumEdges(), s.Graph.NumEdges())
				if err != nil {
					return err
				}
				sBytes.Values = append(sBytes.Values, core.SignedRelativeError(remoteBytes(ri)*scale.EE, actualRemBytes))
				return nil
			})
		if err != nil {
			return nil, err
		}
		iters.Series = append(iters.Series, Series{Label: prefix, Values: errs})
		bytes.Series = append(bytes.Series, sBytes)
	}
	return []*Result{iters, bytes}, nil
}

// runtimeErrorSweep reproduces the Figure 7/8 protocol for one algorithm:
// predict superstep-phase runtime at each ratio, training the cost model
// on sample runs (and optionally on actual runs of the other datasets —
// the "history" panel), and compare with the actual run.
func (l *Lab) runtimeErrorSweep(id, title string, mkAlg func(n int) algorithms.Algorithm,
	prefixes []string, withHistory bool) (*Result, error) {
	fig := &Result{ID: id, Title: title, YLabel: "signed relative error, runtime", Ratios: sweepRatios}
	for _, prefix := range prefixes {
		g, err := l.Graph(prefix)
		if err != nil {
			return nil, err
		}
		alg := mkAlg(g.NumVertices())
		actual, err := l.Actual(alg, prefix)
		if err != nil {
			return nil, err
		}

		// History: actual runs of the same algorithm on the other datasets.
		var history []costmodel.TrainingRun
		if withHistory {
			for _, other := range prefixes {
				if other == prefix {
					continue
				}
				og, err := l.Graph(other)
				if err != nil {
					return nil, err
				}
				oactual, err := l.Actual(mkAlg(og.NumVertices()), other)
				if err != nil {
					return nil, err
				}
				history = append(history,
					costmodel.FromProfile("actual "+other, oactual.Profile, features.ModeCriticalShare))
			}
		}

		s := Series{Label: prefix}
		var r2 float64
		for i, ratio := range sweepRatios {
			p := core.New(core.Options{
				Sampling:       sampling.Options{Ratio: ratio, Seed: l.cfg.Seed + uint64(i)*401},
				BSP:            l.BSP(),
				TrainingRatios: trainingRatios,
				History:        history,
			})
			pred, err := p.Predict(alg, g)
			if err != nil {
				return nil, fmt.Errorf("%s on %s at ratio %.2f: %w", id, prefix, ratio, err)
			}
			ev := core.Evaluate(pred, actual)
			s.Values = append(s.Values, ev.RuntimeError)
			r2 = pred.Model.R2()
			l.progressf("%s %s ratio %.2f: predicted %.0fs vs actual %.0fs (err %+.2f, R2 %.2f)",
				id, prefix, ratio, ev.PredictedSeconds, ev.ActualSeconds, ev.RuntimeError, r2)
		}
		fig.Series = append(fig.Series, s)
		fig.Notes = append(fig.Notes, fmt.Sprintf("R2(%s) = %.2f (last ratio)", prefix, r2))
	}
	return fig, nil
}

// Figure7 reproduces "Predicting runtime for semi-clustering": panel (a)
// trains on sample runs only, panel (b) adds actual runs of the other
// datasets as history. Paper shape: <=30% at sr=0.1 for the web graphs,
// <=50% for LJ; history improves UK to <=10%.
func (l *Lab) Figure7() ([]*Result, error) {
	mk := func(int) algorithms.Algorithm { return algorithms.NewSemiClustering() }
	prefixes := []string{"LJ", "Wiki", "UK"}
	a, err := l.runtimeErrorSweep("Figure 7a",
		"Predicting runtime for semi-clustering (training: sample runs)",
		mk, prefixes, false)
	if err != nil {
		return nil, err
	}
	a.Notes = append(a.Notes, "paper R2: LJ 0.82, Wiki 0.89, UK 0.84; errors <=30% scale-free, <=50% LJ at sr=0.1")
	b, err := l.runtimeErrorSweep("Figure 7b",
		"Predicting runtime for semi-clustering (training: sample runs + history)",
		mk, prefixes, true)
	if err != nil {
		return nil, err
	}
	b.Notes = append(b.Notes, "paper R2: LJ 0.95, Wiki 0.95, UK 0.88; UK error <=10% at sr>=0.1")
	return []*Result{a, b}, nil
}

// Figure8 reproduces "Predicting runtime for top-k ranking", panels (a)
// and (b) as in Figure 7. Paper shape: <=10% for scale-free graphs;
// LJ over-predicts without history (short sample runs inflate cost
// factors); history improves all models to R2 = 0.99.
func (l *Lab) Figure8() ([]*Result, error) {
	mk := func(n int) algorithms.Algorithm { return topK(n) }
	prefixes := []string{"LJ", "Wiki", "UK"}
	a, err := l.runtimeErrorSweep("Figure 8a",
		"Predicting runtime for top-k ranking (training: sample runs)",
		mk, prefixes, false)
	if err != nil {
		return nil, err
	}
	a.Notes = append(a.Notes, "paper R2: LJ 0.95, Wiki 0.96, UK 0.99; LJ over-predicted via inflated cost factors")
	b, err := l.runtimeErrorSweep("Figure 8b",
		"Predicting runtime for top-k ranking (training: sample runs + history)",
		mk, prefixes, true)
	if err != nil {
		return nil, err
	}
	b.Notes = append(b.Notes, "paper R2: 0.99 on all datasets with history")
	return []*Result{a, b}, nil
}

// Figure9 reproduces the sampling-technique sensitivity analysis:
// iteration-prediction error for semi-clustering and top-k ranking on the
// UK dataset under BRJ, RJ and MHRW. Paper shape: at sr = 0.1 BRJ's error
// is smaller than or similar to the others'.
func (l *Lab) Figure9() ([]*Result, error) {
	g, err := l.Graph("UK")
	if err != nil {
		return nil, err
	}
	panels := []struct {
		id    string
		alg   algorithms.Algorithm
		title string
	}{
		{"Figure 9 (top)", algorithms.NewSemiClustering(),
			"Sampling sensitivity: semi-clustering iterations on UK"},
		{"Figure 9 (bottom)", topK(g.NumVertices()),
			"Sampling sensitivity: top-k iterations on UK"},
	}
	var out []*Result
	for _, pn := range panels {
		actual, err := l.Actual(pn.alg, "UK")
		if err != nil {
			return nil, err
		}
		fig := &Result{ID: pn.id, Title: pn.title,
			YLabel: "signed relative error, iterations", Ratios: sweepRatios,
			Notes: []string{"paper: BRJ error smaller or similar to RJ/MHRW at sr=0.1"}}
		for _, method := range sampling.Methods() {
			errs, err := l.iterationErrors(pn.id+" "+string(method), pn.alg, g, actual, method, 577, nil)
			if err != nil {
				return nil, err
			}
			fig.Series = append(fig.Series, Series{Label: string(method), Values: errs})
		}
		out = append(out, fig)
	}
	return out, nil
}

// pageRank is PageRank at tolerance level eps on an n-vertex graph
// (τ = ε/N, §5.1).
func pageRank(eps float64, n int) algorithms.PageRank {
	pr := algorithms.NewPageRank()
	pr.Tau = algorithms.TauForTolerance(eps, n)
	return pr
}

// topK is top-k ranking whose PageRank pre-run stops at tolerance level
// 0.001 on an n-vertex graph.
func topK(n int) algorithms.TopKRanking {
	tk := algorithms.NewTopKRanking()
	tk.PageRank = pageRank(0.001, n)
	return tk
}
