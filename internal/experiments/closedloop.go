package experiments

import (
	"fmt"

	"predict/internal/core"
	"predict/internal/sampling"
)

// ClosedLoop measures the closed-loop feedback experiment: PageRank on
// the Wiki stand-in is fitted once from sample runs, the actual run
// provides the ground-truth runtime, and a seeded stream of noisy
// observed runtimes (±2% around the truth) is fed back through the
// blended estimator. Each row re-predicts with a growing observation
// prefix and reports the regime, the signed runtime error, the p50/p95
// interval, and whether the interval covered the truth. Below the
// threshold (K = core.DefaultObservationThreshold) the prediction is the
// untouched sample fit; at and past it the observation-weighted refit
// answers, with error shrinking as the stream accrues.
func (l *Lab) ClosedLoop() (*Result, error) {
	const prefix = "Wiki"
	g, err := l.Graph(prefix)
	if err != nil {
		return nil, err
	}
	pr := pageRank(0.001, g.NumVertices())
	actual, err := l.Actual(pr, prefix)
	if err != nil {
		return nil, err
	}
	target := actual.Profile.SuperstepPhaseSeconds()

	p := core.New(core.Options{
		Sampling:       sampling.Options{Ratio: 0.10, Seed: l.cfg.Seed},
		BSP:            l.BSP(),
		TrainingRatios: trainingRatios,
	})
	fitted, err := p.Fit(pr, g)
	if err != nil {
		return nil, fmt.Errorf("closed-loop fit: %w", err)
	}

	// A seeded stream of observed runtimes, multiplicatively jittered ±2%
	// around the ground truth (an LCG, so the stream is pinned by Seed).
	const maxObs = 64
	stream := make([]float64, maxObs)
	state := l.cfg.Seed
	for i := range stream {
		state = state*6364136223846793005 + 1442695040888963407
		u := float64(state>>11) / float64(1<<53)
		stream[i] = target * (0.98 + 0.04*u)
	}

	tbl := &Result{
		ID:     "Closed loop",
		Title:  "Feedback-blended prediction error and interval coverage (PR on Wiki)",
		Header: []string{"observations", "regime", "predicted s", "error", "p50 s", "p95 s", "covers actual"},
	}
	for _, n := range []int{0, 1, 3, 5, 8, 16, 32, 64} {
		pred, err := fitted.ExtrapolateBlended(g, 0, stream[:n], 0)
		if err != nil {
			return nil, fmt.Errorf("closed-loop predict at %d observations: %w", n, err)
		}
		d := pred.Runtime
		lo := d.P50Seconds - (d.P95Seconds - d.P50Seconds)
		covers := "no"
		if target >= lo && target <= d.P95Seconds {
			covers = "yes"
		}
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%d", n),
			d.Regime,
			fmt.Sprintf("%.1f", pred.SuperstepSeconds),
			fmt.Sprintf("%+.1f%%", 100*(pred.SuperstepSeconds-target)/target),
			fmt.Sprintf("%.1f", d.P50Seconds),
			fmt.Sprintf("%.1f", d.P95Seconds),
			covers,
		})
		l.progressf("closed loop, %d observations: %s regime, predicted %.1fs vs actual %.1fs",
			n, d.Regime, pred.SuperstepSeconds, target)
	}
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("actual runtime %.1f s; observation stream jittered ±2%% around it (seed %d)", target, l.cfg.Seed),
		fmt.Sprintf("regime switches at K = %d observations (the Ellis density rule); below it the sample fit answers untouched", core.DefaultObservationThreshold),
		fmt.Sprintf("p95 = p50 + %.3f·sigma; \"covers actual\" tests the symmetric central interval [2·p50−p95, p95]", 1.6448536269514722),
	)
	return tbl, nil
}
