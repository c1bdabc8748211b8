package experiments

import (
	"fmt"

	"predict/internal/algorithms"
	"predict/internal/core"
	"predict/internal/costmodel"
	"predict/internal/features"
	"predict/internal/sampling"
)

// iterationErrorSweep runs, for each dataset and sampling ratio, a
// transformed sample run and reports the signed relative error of its
// iteration count against the actual run's.
func (l *Lab) iterationErrorSweep(id, title string, mkAlg func(n int) algorithms.Algorithm,
	key string, prefixes []string, method sampling.Method) (*FigureResult, error) {
	fig := &FigureResult{ID: id, Title: title, YLabel: "signed relative error, iterations"}
	for _, prefix := range prefixes {
		g, err := l.Graph(prefix)
		if err != nil {
			return nil, err
		}
		alg := mkAlg(g.NumVertices())
		actual, err := l.Actual(alg, key, prefix)
		if err != nil {
			return nil, err
		}
		s := Series{Label: prefix}
		for i, ratio := range l.cfg.Ratios {
			ri, _, err := l.sampleRun(alg, g, ratio, method, uint64(i)*131)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", id, prefix, err)
			}
			errIter := core.SignedRelativeError(float64(ri.Iterations), float64(actual.Iterations))
			s.Points = append(s.Points, Point{Ratio: ratio, Value: errIter})
			l.progressf("%s %s ratio %.2f: sample %d vs actual %d iterations (err %+.2f)",
				id, prefix, ratio, ri.Iterations, actual.Iterations, errIter)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Figure4 reproduces "Predicting iterations for PageRank" for tolerance
// levels ε = 0.01 and ε = 0.001 on all four datasets with BRJ sampling.
// Paper shape: ≲20% error at sr = 0.1 for the scale-free graphs (ε=0.01),
// below ~10% for ε = 0.001; LiveJournal is the outlier.
func (l *Lab) Figure4() ([]*FigureResult, error) {
	var out []*FigureResult
	for _, eps := range []float64{0.01, 0.001} {
		eps := eps
		fig, err := l.iterationErrorSweep(
			"Figure 4",
			fmt.Sprintf("Predicting iterations for PageRank, eps=%g", eps),
			func(n int) algorithms.Algorithm {
				pr := algorithms.NewPageRank()
				pr.Tau = algorithms.TauForTolerance(eps, n)
				return pr
			},
			fmt.Sprintf("eps=%g", eps),
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
func (l *Lab) Figure5() ([]*FigureResult, error) {
	var out []*FigureResult
	for _, tau := range []float64{0.01, 0.001} {
		tau := tau
		fig, err := l.iterationErrorSweep(
			"Figure 5",
			fmt.Sprintf("Predicting iterations for semi-clustering, tau=%g", tau),
			func(int) algorithms.Algorithm {
				sc := algorithms.NewSemiClustering()
				sc.Tau = tau
				return sc
			},
			fmt.Sprintf("tau=%g", tau),
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
func (l *Lab) Figure6() ([]*FigureResult, error) {
	iters := &FigureResult{
		ID:     "Figure 6 (top)",
		Title:  "Predicting iterations for top-k ranking, tau=0.001",
		YLabel: "signed relative error, iterations",
		Notes:  []string{"paper: below 35% for scale-free graphs; LJ over-estimates up to 1.5x"},
	}
	bytes := &FigureResult{
		ID:     "Figure 6 (bottom)",
		Title:  "Predicting remote message bytes for top-k ranking, tau=0.001",
		YLabel: "signed relative error, remote message bytes",
		Notes:  []string{"paper: below 10% for scale-free graphs; LJ ~40%"},
	}
	for _, prefix := range []string{"LJ", "Wiki", "UK"} {
		g, err := l.Graph(prefix)
		if err != nil {
			return nil, err
		}
		tk := algorithms.NewTopKRanking()
		tk.PageRank.Tau = algorithms.TauForTolerance(0.001, g.NumVertices())
		actual, err := l.Actual(tk, "tau=0.001", prefix)
		if err != nil {
			return nil, err
		}
		var actualRemBytes float64
		for i := range actual.Profile.Supersteps {
			actualRemBytes += float64(actual.Profile.Supersteps[i].Total().RemoteMessageBytes)
		}
		sIter := Series{Label: prefix}
		sBytes := Series{Label: prefix}
		for i, ratio := range l.cfg.Ratios {
			ri, s, err := l.sampleRun(tk, g, ratio, sampling.BiasedRandomJump, uint64(i)*269)
			if err != nil {
				return nil, fmt.Errorf("Figure 6 on %s: %w", prefix, err)
			}
			sIter.Points = append(sIter.Points, Point{Ratio: ratio,
				Value: core.SignedRelativeError(float64(ri.Iterations), float64(actual.Iterations))})

			// Extrapolate the sample run's remote bytes with the edge factor.
			scale, err := features.NewScale(g.NumVertices(), s.Graph.NumVertices(),
				g.NumEdges(), s.Graph.NumEdges())
			if err != nil {
				return nil, err
			}
			var sampleRemBytes float64
			for j := range ri.Profile.Supersteps {
				sampleRemBytes += float64(ri.Profile.Supersteps[j].Total().RemoteMessageBytes)
			}
			predBytes := sampleRemBytes * scale.EE
			sBytes.Points = append(sBytes.Points, Point{Ratio: ratio,
				Value: core.SignedRelativeError(predBytes, actualRemBytes)})
		}
		iters.Series = append(iters.Series, sIter)
		bytes.Series = append(bytes.Series, sBytes)
	}
	return []*FigureResult{iters, bytes}, nil
}

// runtimeErrorSweep reproduces the Figure 7/8 protocol for one algorithm:
// predict superstep-phase runtime at each ratio, training the cost model
// on sample runs (and optionally on actual runs of the other datasets —
// the "history" panel), and compare with the actual run.
func (l *Lab) runtimeErrorSweep(id, title string, mkAlg func(n int) algorithms.Algorithm,
	key string, prefixes []string, withHistory bool) (*FigureResult, error) {
	fig := &FigureResult{ID: id, Title: title, YLabel: "signed relative error, runtime"}
	for _, prefix := range prefixes {
		g, err := l.Graph(prefix)
		if err != nil {
			return nil, err
		}
		alg := mkAlg(g.NumVertices())
		actual, err := l.Actual(alg, key, prefix)
		if err != nil {
			return nil, err
		}

		// History: actual runs of the same algorithm on the other datasets.
		var history []costmodel.TrainingRun
		var r2s []float64
		if withHistory {
			for _, other := range prefixes {
				if other == prefix {
					continue
				}
				og, err := l.Graph(other)
				if err != nil {
					return nil, err
				}
				oactual, err := l.Actual(mkAlg(og.NumVertices()), key, other)
				if err != nil {
					return nil, err
				}
				history = append(history,
					costmodel.FromProfile("actual "+other, oactual.Profile, features.ModeCriticalShare))
			}
		}

		s := Series{Label: prefix}
		for i, ratio := range l.cfg.Ratios {
			p := core.New(core.Options{
				Sampling:       sampling.Options{Ratio: ratio, Seed: l.cfg.Seed + uint64(i)*401},
				BSP:            l.BSP(),
				TrainingRatios: l.cfg.TrainingRatios,
				History:        history,
			})
			pred, err := p.Predict(alg, g)
			if err != nil {
				return nil, fmt.Errorf("%s on %s at ratio %.2f: %w", id, prefix, ratio, err)
			}
			ev := core.Evaluate(pred, actual)
			s.Points = append(s.Points, Point{Ratio: ratio, Value: ev.RuntimeError})
			r2s = append(r2s, pred.Model.R2())
			l.progressf("%s %s ratio %.2f: predicted %.0fs vs actual %.0fs (err %+.2f, R2 %.2f)",
				id, prefix, ratio, ev.PredictedSeconds, ev.ActualSeconds, ev.RuntimeError, pred.Model.R2())
		}
		fig.Series = append(fig.Series, s)
		fig.Notes = append(fig.Notes, fmt.Sprintf("R2(%s) = %.2f (last ratio)", prefix, r2s[len(r2s)-1]))
	}
	return fig, nil
}

// Figure7 reproduces "Predicting runtime for semi-clustering": panel (a)
// trains on sample runs only, panel (b) adds actual runs of the other
// datasets as history. Paper shape: <=30% at sr=0.1 for the web graphs,
// <=50% for LJ; history improves UK to <=10%.
func (l *Lab) Figure7() ([]*FigureResult, error) {
	mk := func(int) algorithms.Algorithm { return algorithms.NewSemiClustering() }
	prefixes := []string{"LJ", "Wiki", "UK"}
	a, err := l.runtimeErrorSweep("Figure 7a",
		"Predicting runtime for semi-clustering (training: sample runs)",
		mk, "tau=0.001", prefixes, false)
	if err != nil {
		return nil, err
	}
	a.Notes = append(a.Notes, "paper R2: LJ 0.82, Wiki 0.89, UK 0.84; errors <=30% scale-free, <=50% LJ at sr=0.1")
	b, err := l.runtimeErrorSweep("Figure 7b",
		"Predicting runtime for semi-clustering (training: sample runs + history)",
		mk, "tau=0.001", prefixes, true)
	if err != nil {
		return nil, err
	}
	b.Notes = append(b.Notes, "paper R2: LJ 0.95, Wiki 0.95, UK 0.88; UK error <=10% at sr>=0.1")
	return []*FigureResult{a, b}, nil
}

// Figure8 reproduces "Predicting runtime for top-k ranking", panels (a)
// and (b) as in Figure 7. Paper shape: <=10% for scale-free graphs;
// LJ over-predicts without history (short sample runs inflate cost
// factors); history improves all models to R2 = 0.99.
func (l *Lab) Figure8() ([]*FigureResult, error) {
	mk := func(n int) algorithms.Algorithm {
		tk := algorithms.NewTopKRanking()
		tk.PageRank.Tau = algorithms.TauForTolerance(0.001, n)
		return tk
	}
	prefixes := []string{"LJ", "Wiki", "UK"}
	a, err := l.runtimeErrorSweep("Figure 8a",
		"Predicting runtime for top-k ranking (training: sample runs)",
		mk, "tau=0.001", prefixes, false)
	if err != nil {
		return nil, err
	}
	a.Notes = append(a.Notes, "paper R2: LJ 0.95, Wiki 0.96, UK 0.99; LJ over-predicted via inflated cost factors")
	b, err := l.runtimeErrorSweep("Figure 8b",
		"Predicting runtime for top-k ranking (training: sample runs + history)",
		mk, "tau=0.001", prefixes, true)
	if err != nil {
		return nil, err
	}
	b.Notes = append(b.Notes, "paper R2: 0.99 on all datasets with history")
	return []*FigureResult{a, b}, nil
}

// Figure9 reproduces the sampling-technique sensitivity analysis:
// iteration-prediction error for semi-clustering and top-k ranking on the
// UK dataset under BRJ, RJ and MHRW. Paper shape: at sr = 0.1 BRJ's error
// is smaller than or similar to the others'.
func (l *Lab) Figure9() ([]*FigureResult, error) {
	g, err := l.Graph("UK")
	if err != nil {
		return nil, err
	}
	type panel struct {
		id    string
		alg   algorithms.Algorithm
		key   string
		title string
	}
	tk := algorithms.NewTopKRanking()
	tk.PageRank.Tau = algorithms.TauForTolerance(0.001, g.NumVertices())
	panels := []panel{
		{"Figure 9 (top)", algorithms.NewSemiClustering(), "tau=0.001",
			"Sampling sensitivity: semi-clustering iterations on UK"},
		{"Figure 9 (bottom)", tk, "tau=0.001",
			"Sampling sensitivity: top-k iterations on UK"},
	}
	var out []*FigureResult
	for _, pn := range panels {
		actual, err := l.Actual(pn.alg, pn.key, "UK")
		if err != nil {
			return nil, err
		}
		fig := &FigureResult{ID: pn.id, Title: pn.title,
			YLabel: "signed relative error, iterations",
			Notes:  []string{"paper: BRJ error smaller or similar to RJ/MHRW at sr=0.1"}}
		for _, method := range sampling.Methods() {
			s := Series{Label: string(method)}
			for i, ratio := range l.cfg.Ratios {
				ri, _, err := l.sampleRun(pn.alg, g, ratio, method, uint64(i)*577)
				if err != nil {
					return nil, fmt.Errorf("%s %s: %w", pn.id, method, err)
				}
				s.Points = append(s.Points, Point{Ratio: ratio,
					Value: core.SignedRelativeError(float64(ri.Iterations), float64(actual.Iterations))})
			}
			fig.Series = append(fig.Series, s)
		}
		out = append(out, fig)
	}
	return out, nil
}
