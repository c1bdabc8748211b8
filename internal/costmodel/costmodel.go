// Package costmodel builds the customizable cost models of §3.4: per
// iteration, a multivariate linear regression from key input features to
// runtime, with features chosen by sequential forward selection. Models
// train on sample runs and, when available, historical actual runs of the
// same algorithm on other datasets, and are then reused across input
// datasets.
package costmodel

import (
	"errors"
	"fmt"

	"predict/internal/bsp"
	"predict/internal/features"
	"predict/internal/regress"
)

// TrainingRun is one profiled run contributing training rows: each
// iteration is an observation (features -> seconds).
type TrainingRun struct {
	// Source labels the run (e.g. "sample sr=0.10 Wiki" or "actual UK")
	// for diagnostics.
	Source string
	// Iters holds the per-iteration observations.
	Iters []features.IterationFeatures
}

// FromProfile converts a run profile into a TrainingRun under a feature
// mode.
func FromProfile(source string, p *bsp.Profile, mode features.Mode) TrainingRun {
	return TrainingRun{Source: source, Iters: features.FromProfile(p, mode)}
}

// Options configures model training.
type Options struct {
	// DisableSelection fits all pool features without selection (ablation).
	DisableSelection bool
}

// maxFeatures caps forward selection. Every model behind a pin, a golden
// and a figure was selected under it.
const maxFeatures = 4

// Model is a fitted per-iteration cost model.
type Model struct {
	fit  *regress.Fit
	pool []features.Name
}

// ErrNoTrainingData reports an empty training set.
var ErrNoTrainingData = errors.New("costmodel: no training data")

// Train fits a cost model on the union of all runs' iterations.
func Train(runs []TrainingRun, opts Options) (*Model, error) {
	var X [][]float64
	var y []float64
	for _, r := range runs {
		for _, it := range r.Iters {
			X = append(X, it.Vector)
			y = append(y, it.Seconds)
		}
	}
	if len(X) == 0 {
		return nil, ErrNoTrainingData
	}
	var fit *regress.Fit
	var err error
	if opts.DisableSelection {
		fit, err = regress.OLS(X, y)
	} else {
		fit, err = regress.ForwardSelect(X, y, maxFeatures)
	}
	if err != nil {
		return nil, fmt.Errorf("costmodel: fitting: %w", err)
	}
	return &Model{fit: fit, pool: features.Pool()}, nil
}

// PredictIteration prices one iteration from its (extrapolated) feature
// vector. Predictions are clamped at zero: the linear model can go
// negative far outside its training range.
func (m *Model) PredictIteration(v features.Vector) float64 {
	t := m.fit.Predict(v)
	if t < 0 {
		t = 0
	}
	return t
}

// R2 returns the coefficient of determination on the training data — the
// paper's per-model fit statistic (§5.2 reports R² per dataset).
func (m *Model) R2() float64 { return m.fit.R2 }

// ResidualVariance returns the unbiased per-iteration noise variance of
// the underlying regression (SSE over residual degrees of freedom) — the
// starting point of a prediction interval: summed over the predicted
// iteration count it bounds how far a point estimate should be trusted.
func (m *Model) ResidualVariance() float64 { return m.fit.ResidualVariance }

// Refit refits the model's coefficients on new training data while
// keeping the selected feature subset fixed, so new rows re-weight the
// coefficients of the structure forward selection chose from sample runs
// instead of re-running selection (whose greedy path is sensitive to
// single added rows). It is RefitWindow with an empty window.
func (m *Model) Refit(runs []TrainingRun) (*Model, error) {
	var rows []features.IterationFeatures
	for _, r := range runs {
		rows = append(rows, r.Iters...)
	}
	if len(rows) == 0 {
		return nil, ErrNoTrainingData
	}
	return m.RefitWindow(rows, nil, nil, Window{})
}

// Window summarizes n observed end-to-end runtimes t₁…tₙ: their sum T,
// mean t̄ and centred sum of squares S_tt = Σ(tⱼ − t̄)².
type Window struct {
	N              int
	Sum, Mean, Stt float64
}

// NewWindow summarizes a non-empty ts, summing in the order given: a
// caller that wants an answer independent of arrival order sorts ts first.
func NewWindow(ts []float64) Window {
	w := Window{N: len(ts)}
	for _, t := range ts {
		w.Sum += t
	}
	w.Mean = w.Sum / float64(w.N)
	for _, t := range ts {
		w.Stt += (t - w.Mean) * (t - w.Mean)
	}
	return w
}

// RefitWindow is Refit over training plus, for every observed total tⱼ of
// w and every iteration i, the row (xs[i], tⱼ·shape[i]). Those n·len(xs)
// rows share len(xs) designs dᵢ = [1, xs[i] on the selected features], so
// they enter the normal equations in closed form, A += n·Σ dᵢdᵢᵀ and
// c += T·Σ shape[i]·dᵢ, and the sums of squares as
// Σᵢ [shape[i]²·S_tt + n·(t̄·shape[i] − b·dᵢ)²] (the total with the rows'
// grand mean in place of b·dᵢ). The cost is bounded by the training rows
// and the iterations, never by the window.
func (m *Model) RefitWindow(training []features.IterationFeatures, xs []features.Vector, shape []float64, w Window) (*Model, error) {
	eq := regress.NewNormal(m.fit.FeatureIdx)
	var ySum float64
	for _, it := range training {
		eq.Add(it.Vector, 1, it.Seconds)
		ySum += it.Seconds
	}
	for i, x := range xs {
		eq.Add(x, w.N, w.Sum*shape[i])
		ySum += w.Sum * shape[i]
	}
	grand := ySum / float64(len(training)+w.N*len(xs))
	fit, err := eq.Solve(func(fit *regress.Fit) (ssRes, ssTot float64) {
		for _, it := range training {
			r, t := it.Seconds-fit.Predict(it.Vector), it.Seconds-grand
			ssRes += r * r
			ssTot += t * t
		}
		for i, x := range xs {
			within := shape[i] * shape[i] * w.Stt
			r, t := w.Mean*shape[i]-fit.Predict(x), w.Mean*shape[i]-grand
			ssRes += within + float64(w.N)*r*r
			ssTot += within + float64(w.N)*t*t
		}
		return ssRes, ssTot
	})
	if err != nil {
		return nil, fmt.Errorf("costmodel: refitting: %w", err)
	}
	return &Model{fit: fit, pool: m.pool}, nil
}

// SelectedFeatures lists the features forward selection kept, in selection
// order.
func (m *Model) SelectedFeatures() []features.Name {
	out := make([]features.Name, len(m.fit.FeatureIdx))
	for i, idx := range m.fit.FeatureIdx {
		out[i] = m.pool[idx]
	}
	return out
}

// Coefficients returns the fitted cost factors by feature, plus the
// intercept (the residual term r). These are the per-feature "cost values"
// the paper interprets (§3.4).
func (m *Model) Coefficients() (map[features.Name]float64, float64) {
	coefs := make(map[features.Name]float64, len(m.fit.Coef))
	for i, idx := range m.fit.FeatureIdx {
		coefs[m.pool[idx]] = m.fit.Coef[i]
	}
	return coefs, m.fit.Intercept
}
