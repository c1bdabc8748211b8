// Package core implements the PREDIcT pipeline of Figure 1: sample the
// input graph, run the transformed algorithm on the sample while profiling
// key input features, extrapolate the features to full-graph scale, and
// translate them into runtime through a fitted cost model.
package core

import (
	"math"

	"predict/internal/algorithms"
	"predict/internal/bsp"
	"predict/internal/costmodel"
	"predict/internal/features"
	"predict/internal/graph"
	"predict/internal/parallel"
	"predict/internal/sampling"
)

// Options configures a Predictor.
type Options struct {
	// Method is the sampling technique; the default is Biased Random Jump,
	// the paper's default (§3.2.1).
	Method sampling.Method
	// Sampling carries the main sample run's ratio and the base seed.
	Sampling sampling.Options
	// BSP is the execution environment used for the sample run. Per the
	// paper's assumption iii, it must match the actual run's environment
	// (same workers, same cost oracle).
	BSP bsp.Config
	// Mode selects per-iteration feature reduction; the default is
	// critical-path share scaling (§3.4).
	Mode features.Mode
	// CostModel configures regression and feature selection.
	CostModel costmodel.Options
	// History holds profiled runs of the same algorithm on other datasets;
	// when present they join the sample run as training data (§3.4,
	// "Training Methodology").
	History []costmodel.TrainingRun
	// TrainingRatios lists additional sampling ratios whose sample runs
	// train the cost model alongside the main sample run. The paper trains
	// on sample runs at ratios 0.05, 0.1, 0.15 and 0.2 (§5.2); multiple
	// scales give the regression the feature range a single run of a
	// constant-per-iteration algorithm cannot provide.
	TrainingRatios []float64
	// Parallelism bounds how many sample+profile pipelines Fit runs
	// concurrently (the main sample run plus one per training ratio).
	// Zero selects GOMAXPROCS; 1 selects the sequential path. Any value
	// yields bit-identical models: every run's randomness derives from
	// its ratio index (sampling.DeriveSeed), never from execution order.
	Parallelism int
	// Pool optionally supplies a shared worker pool for the sample runs,
	// so many predictors (e.g. a service's concurrent cold fits) can
	// share one parallelism budget. When nil, Fit uses a transient pool
	// of Parallelism slots.
	Pool *parallel.Pool
}

// Predictor runs the PREDIcT methodology for one algorithm on one graph.
type Predictor struct {
	opts Options
}

// New returns a Predictor with the given options.
func New(opts Options) *Predictor {
	if opts.Method == "" {
		opts.Method = sampling.BiasedRandomJump
	}
	return &Predictor{opts: opts}
}

// Prediction is the outcome of the pipeline.
type Prediction struct {
	// Algorithm is the predicted algorithm's name.
	Algorithm string
	// Iterations is the predicted iteration count — the sample run's
	// count, preserved by the transform function rather than extrapolated.
	Iterations int
	// PerIterationSeconds holds the cost model's per-iteration runtime
	// estimates on extrapolated features.
	PerIterationSeconds []float64
	// SuperstepSeconds is the predicted superstep-phase runtime (the sum
	// of PerIterationSeconds) — the quantity §2.2 targets.
	SuperstepSeconds float64
	// PredictedRemoteMessageBytes is the extrapolated total of remote
	// message bytes across iterations (Figure 6's second panel).
	PredictedRemoteMessageBytes float64
	// Model is the fitted cost model (inspect R2, selected features,
	// coefficients).
	Model *costmodel.Model
	// Scale holds the extrapolation factors eV, eE.
	Scale features.Scale
	// SampleVertexRatio/SampleEdgeRatio are the sample's achieved
	// |V_S|/|V_G| and |E_S|/|E_G|.
	SampleVertexRatio float64
	SampleEdgeRatio   float64
	// SampleRunSeconds is the end-to-end simulated cost of the sample run,
	// the overhead quantity of Table 3.
	SampleRunSeconds float64
	// CriticalShareSample/Full are the critical-path workers' outbound
	// edge shares on the sample and full graph.
	CriticalShareSample float64
	CriticalShareFull   float64
	// Runtime is the prediction's uncertainty distribution (mean, spread,
	// p50/p95 and blend regime). It is populated by ExtrapolateBlended;
	// plain Extrapolate leaves it zero.
	Runtime Distribution
}

// Predict runs the full pipeline for alg on g: the expensive half (Fit:
// sample, profile, train) followed by the cheap half (Extrapolate: scale
// features to g and price them). The returned Prediction carries a
// populated Runtime distribution (extrapolation regime: no observations).
// Callers that issue repeated or what-if queries should hold on to Fit's
// result and call Extrapolate or ExtrapolateBlended directly.
func (p *Predictor) Predict(alg algorithms.Algorithm, g *graph.Graph) (*Prediction, error) {
	fitted, err := p.Fit(alg, g)
	if err != nil {
		return nil, err
	}
	return fitted.ExtrapolateBlended(g, 0, nil, 0)
}

// Evaluation compares a prediction against a profiled actual run.
type Evaluation struct {
	PredictedIterations int
	ActualIterations    int
	// IterationsError is the signed relative error on iteration count —
	// the y-axis of Figures 4, 5, 6 (top) and 9.
	IterationsError  float64
	PredictedSeconds float64
	ActualSeconds    float64
	// RuntimeError is the signed relative error on superstep-phase
	// runtime — the y-axis of Figures 7 and 8.
	RuntimeError         float64
	PredictedRemoteBytes float64
	ActualRemoteBytes    float64
	// RemoteBytesError is the signed relative error on total remote
	// message bytes — the y-axis of Figure 6 (bottom).
	RemoteBytesError float64
}

// Evaluate computes the paper's error metrics for a prediction against the
// actual run's profile.
func Evaluate(pred *Prediction, actual *algorithms.RunInfo) Evaluation {
	ev := Evaluation{
		PredictedIterations:  pred.Iterations,
		ActualIterations:     actual.Iterations,
		PredictedSeconds:     pred.SuperstepSeconds,
		ActualSeconds:        actual.Profile.SuperstepPhaseSeconds(),
		PredictedRemoteBytes: pred.PredictedRemoteMessageBytes,
	}
	for i := range actual.Profile.Supersteps {
		ev.ActualRemoteBytes += float64(actual.Profile.Supersteps[i].Total().RemoteMessageBytes)
	}
	ev.IterationsError = SignedRelativeError(float64(ev.PredictedIterations), float64(ev.ActualIterations))
	ev.RuntimeError = SignedRelativeError(ev.PredictedSeconds, ev.ActualSeconds)
	ev.RemoteBytesError = SignedRelativeError(ev.PredictedRemoteBytes, ev.ActualRemoteBytes)
	return ev
}

// SignedRelativeError returns (predicted - actual) / actual, the error
// statistic of every figure: negative values are under-predictions,
// positive are over-predictions. It is 0 when both are zero and +Inf when
// only actual is zero — a non-zero prediction of a zero actual is not
// "0 % error".
func SignedRelativeError(predicted, actual float64) float64 {
	if actual == 0 {
		if predicted == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (predicted - actual) / actual
}
