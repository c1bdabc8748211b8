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
	"sort"

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

// meanVariance returns the sample mean and unbiased sample variance of
// xs (zero variance below two points).
func meanVariance(xs []float64) (mean, variance float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(n)
	if n < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, ss / float64(n-1)
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
// but the regression trains on per-iteration rows.
func (f *Fitted) ExtrapolateBlended(g *graph.Graph, workers int, observed []float64, threshold int) (*Prediction, error) {
	if threshold <= 0 {
		threshold = DefaultObservationThreshold
	}
	// Only the interpolation regime needs the full-scale feature vectors —
	// one per sample-run iteration, the x side of every observation-derived
	// row — and it takes them from the same pass that prices the run, so
	// the extrapolation scale (and the critical-share lookup behind it) is
	// derived once per call in either regime.
	var vectors []features.Vector
	if len(observed) >= threshold {
		vectors = make([]features.Vector, len(f.IterFeatures))
	}
	pred, err := f.price(g, workers, vectors)
	if err != nil {
		return nil, err
	}
	iters := float64(len(pred.PerIterationSeconds))
	if vectors == nil {
		pred.Runtime = newDistribution(pred.SuperstepSeconds,
			iters*f.Model.ResidualVariance(),
			RegimeExtrapolation, len(observed))
		return pred, nil
	}

	// Interpolation regime: fold the observations into the training set
	// and refit the already-selected feature subset. Selection is not
	// re-run — its greedy path is sensitive to single rows, and feedback
	// must move predictions monotonically toward the observed mean, not
	// jump between structural hypotheses. The sample-fit per-iteration
	// shape distributes each observed total.
	var baseTotal float64
	for _, s := range pred.PerIterationSeconds {
		baseTotal += s
	}
	obs := append([]float64(nil), observed...)
	sort.Float64s(obs) // insensitive to arrival order
	training := make([]costmodel.TrainingRun, 0, len(obs)+1)
	training = append(training, costmodel.TrainingRun{
		Source: "sample", Iters: f.TrainingRows,
	})
	for _, total := range obs {
		run := costmodel.TrainingRun{
			Source: "observed",
			Iters:  make([]features.IterationFeatures, 0, len(vectors)),
		}
		for i := range vectors {
			secs := total / iters
			if baseTotal > 0 {
				secs = total * pred.PerIterationSeconds[i] / baseTotal
			}
			run.Iters = append(run.Iters, features.IterationFeatures{
				Vector:  vectors[i],
				Seconds: secs,
			})
		}
		training = append(training, run)
	}
	blended, err := f.Model.Refit(training)
	if err != nil {
		return nil, fmt.Errorf("core: blending observations: %w", err)
	}

	// Re-price through the blended model.
	pred.Model = blended
	pred.SuperstepSeconds = 0
	for i, v := range vectors {
		secs := blended.PredictIteration(v)
		pred.PerIterationSeconds[i] = secs
		pred.SuperstepSeconds += secs
	}
	// Spread: the blended regression's per-iteration noise over the run,
	// plus the standard error of the observed mean — the two uncertainty
	// sources feedback cannot eliminate immediately.
	_, obsVar := meanVariance(obs)
	variance := iters*blended.ResidualVariance() + obsVar/float64(len(obs))
	pred.Runtime = newDistribution(pred.SuperstepSeconds, variance,
		RegimeInterpolation, len(obs))
	return pred, nil
}
