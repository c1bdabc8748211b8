// Closed-loop blending. A Fitted alone extrapolates from sample runs —
// the paper's regime, where no full-scale run of the workload has ever
// been observed. Once actual runtimes start flowing back (the service's
// /observe endpoint), the predictor holds data *at* the prediction point,
// and extrapolation gives way to interpolation: the cost model's
// coefficients are refitted with the observed totals folded into the
// training set, so repeated feedback pulls predictions toward reality.
//
// The switch follows Ellis's density rule (see SNIPPETS.md §2): with
// fewer than DefaultObservationThreshold observations the analytic
// sample-fit model answers — bit-identical to plain Extrapolate, so the
// no-feedback path never moves — and at the threshold the data-driven
// refit takes over. Either regime also reports a runtime Distribution:
// the regression's residual variance summed over the predicted iteration
// count, plus (in the interpolation regime) the sampling error of the
// observed mean, turned into p50/p95 quantiles and deadline
// probabilities under a normal approximation.
package core

import (
	"fmt"
	"math"
	"slices"

	"predict/internal/costmodel"
	"predict/internal/features"
	"predict/internal/graph"
)

// DefaultObservationThreshold is the default number of observed actual
// runtimes at which a model key switches from the extrapolation regime
// (pure sample-fit, the paper's pipeline) to the interpolation regime
// (observation-weighted refit). Five mirrors the density rule of Ellis:
// up to five distinct observed points, trust the analytic model; beyond,
// the data speaks for itself.
const DefaultObservationThreshold = 5

// Blend regime labels, reported on Distribution.Regime and the service's
// /predict and /stats responses.
const (
	// RegimeExtrapolation marks a prediction answered purely from the
	// sample-fit model (fewer observations than the threshold).
	RegimeExtrapolation = "extrapolation"
	// RegimeInterpolation marks a prediction answered from the
	// observation-weighted refit.
	RegimeInterpolation = "interpolation"
)

// z95 is the 95th-percentile quantile of the standard normal
// distribution, used to turn a standard deviation into a p95 bound.
const z95 = 1.6448536269514722

// Distribution summarizes a prediction's uncertainty: a normal
// approximation around the point estimate, wide enough to cover the
// regression's per-iteration noise and — in the interpolation regime —
// the sampling error of the observed runtimes.
type Distribution struct {
	// MeanSeconds is the point estimate (equal to SuperstepSeconds).
	MeanSeconds float64
	// StdDevSeconds is the approximation's standard deviation.
	StdDevSeconds float64
	// P50Seconds and P95Seconds are the median and 95th-percentile
	// runtime under the approximation.
	P50Seconds float64
	P95Seconds float64
	// Regime is RegimeExtrapolation or RegimeInterpolation.
	Regime string
	// Observations is how many observed runtimes informed the blend.
	Observations int
}

// ProbabilityWithin returns P(runtime <= deadline) under the
// distribution — the probability a run meets an SLA deadline. With zero
// spread the answer degenerates to a step at the mean.
func (d Distribution) ProbabilityWithin(deadline float64) float64 {
	if deadline <= 0 {
		return 0
	}
	if d.StdDevSeconds <= 0 {
		if d.MeanSeconds <= deadline {
			return 1
		}
		return 0
	}
	z := (deadline - d.MeanSeconds) / d.StdDevSeconds
	return 0.5 * (1 + math.Erf(z/math.Sqrt2))
}

// newDistribution builds the normal approximation around mean with the
// given variance.
func newDistribution(mean, variance float64, regime string, observations int) Distribution {
	sd := 0.0
	if variance > 0 {
		sd = math.Sqrt(variance)
	}
	return Distribution{
		MeanSeconds:   mean,
		StdDevSeconds: sd,
		P50Seconds:    mean,
		P95Seconds:    mean + z95*sd,
		Regime:        regime,
		Observations:  observations,
	}
}

// ExtrapolateBlended is Extrapolate with closed-loop feedback: it prices
// g like Extrapolate does, then — given the observed actual runtimes of
// this exact model key — selects a regime. Below threshold observations
// (zero selects DefaultObservationThreshold) the sample-fit prediction
// stands, bit-identical to Extrapolate, and only the Runtime distribution
// is added. At or above the threshold the model's selected feature
// subset is refitted over the original training rows plus one row per
// observed iteration, and the refitted model re-prices the run.
//
// Observed totals are spread over iterations in proportion to the
// sample-fit model's per-iteration shape (uniformly when the shape sums
// to zero): the observation stream reports end-to-end superstep seconds,
// but the regression trains on per-iteration rows. Those rows are never
// built: costmodel.Model.RefitWindow takes the window in closed form, at
// a cost that does not grow with the number of observations.
func (f *Fitted) ExtrapolateBlended(g *graph.Graph, workers int, observed []float64, threshold int) (*Prediction, error) {
	if threshold <= 0 {
		threshold = DefaultObservationThreshold
	}
	// Only the interpolation regime keeps the full-scale vectors, from the
	// pass that prices the run: the extrapolation scale (and the
	// critical-share lookup behind it) is derived once per call.
	var xs []features.Vector
	if len(observed) >= threshold {
		xs = make([]features.Vector, len(f.IterFeatures))
		flat := make([]float64, len(xs)*features.PoolSize)
		for i := range xs {
			xs[i] = flat[i*features.PoolSize : (i+1)*features.PoolSize]
		}
	}
	pred, err := f.price(g, workers, xs)
	if err != nil {
		return nil, err
	}
	iters := float64(len(pred.PerIterationSeconds))
	if xs == nil {
		pred.Runtime = newDistribution(pred.SuperstepSeconds,
			iters*f.Model.ResidualVariance(),
			RegimeExtrapolation, len(observed))
		return pred, nil
	}

	// Interpolation regime: refit the already-selected feature subset with
	// the observations folded in. Selection is not re-run — feedback must
	// move predictions monotonically toward the observed mean, not jump
	// between structural hypotheses.
	shape := make([]float64, len(xs))
	for i, s := range pred.PerIterationSeconds {
		shape[i] = 1 / iters
		if pred.SuperstepSeconds > 0 {
			shape[i] = s / pred.SuperstepSeconds
		}
	}
	obs := slices.Clone(observed)
	slices.Sort(obs) // insensitive to arrival order
	window := costmodel.NewWindow(obs)
	blended, err := f.Model.RefitWindow(f.TrainingRows, xs, shape, window)
	if err != nil {
		return nil, fmt.Errorf("core: blending observations: %w", err)
	}

	// Re-price through the blended model.
	pred.Model = blended
	pred.SuperstepSeconds = 0
	for i, x := range xs {
		secs := blended.PredictIteration(x)
		pred.PerIterationSeconds[i] = secs
		pred.SuperstepSeconds += secs
	}
	// Spread: the blended regression's per-iteration noise over the run,
	// plus the standard error of the observed mean — the two uncertainty
	// sources feedback cannot eliminate immediately.
	variance := iters * blended.ResidualVariance()
	if n := float64(window.N); n >= 2 {
		variance += window.Stt / (n - 1) / n
	}
	pred.Runtime = newDistribution(pred.SuperstepSeconds, variance,
		RegimeInterpolation, window.N)
	return pred, nil
}
