package core

import (
	"context"
	"fmt"
	"runtime"

	"predict/internal/algorithms"
	"predict/internal/bsp"
	"predict/internal/costmodel"
	"predict/internal/features"
	"predict/internal/graph"
	"predict/internal/parallel"
	"predict/internal/sampling"
)

// Fitted is the reusable product of the expensive half of the pipeline:
// the profiled sample runs and the cost model fitted on them (steps 1–5 of
// Figure 1). A Fitted is independent of the extrapolation target, so a
// prediction service can cache it and answer repeated or what-if queries
// by re-running only Extrapolate — the cheap half — against a full graph
// and a (possibly hypothetical) worker count.
//
// A Fitted is its history record: FittedFromRecord(f.Record(...)) equals
// f in every field but SamplesDrawn and SamplesReused, which describe the
// fit rather than the model. It references no graph, so no sample outlives
// the dataset graph's sample memo on its account.
type Fitted struct {
	// Algorithm is the fitted algorithm's Name().
	Algorithm string
	// Iterations is the sample run's superstep count, which the transform
	// function preserves at full scale.
	Iterations int
	// Model is the fitted per-iteration cost model.
	Model *costmodel.Model
	// IterFeatures holds the sample run's per-iteration feature vectors,
	// mode-reduced at sample scale — the vectors Extrapolate scales up.
	IterFeatures []features.IterationFeatures
	// RemoteBytesPerIter holds the sample run's graph-level remote message
	// bytes per iteration (not mode-reduced), extrapolated by eE for the
	// Figure 6 remote-bytes prediction.
	RemoteBytesPerIter []float64
	// SampleVertices/SampleEdges are the sample graph's size, the
	// denominators of the extrapolation factors eV and eE.
	SampleVertices int
	SampleEdges    int64
	// SampleVertexRatio/SampleEdgeRatio are the achieved sampling ratios.
	SampleVertexRatio float64
	SampleEdgeRatio   float64
	// SampleCriticalShare is the structural critical-path share
	// bsp.CriticalShareOf(sample graph, SampleWorkers): the denominator of
	// the share-rescaling factor of §3.4.
	SampleCriticalShare float64
	// ProfiledCriticalShare is the profiled critical share of the sample
	// run (reported on Prediction for diagnostics).
	ProfiledCriticalShare float64
	// SampleRunSeconds is the simulated end-to-end cost of the main sample
	// run — the planning overhead of Table 3, paid once per Fitted.
	SampleRunSeconds float64
	// SampleWorkers is the resolved worker count of the sample cluster.
	// Per the paper's assumption iii the sample and actual environments
	// match; Extrapolate defaults to this count.
	SampleWorkers int
	// Mode is the feature-reduction mode the model was trained under.
	Mode features.Mode
	// TrainingRows is the flattened training matrix the model was fitted
	// on (history + main sample run + additional-ratio runs), kept so the
	// model can be refitted bit-identically after persistence.
	TrainingRows []features.IterationFeatures
	// CostModel records the training options, for faithful refits.
	CostModel costmodel.Options

	// SamplesDrawn/SamplesReused count this fit's sample pipelines by
	// where their sample came from: drawn by this fit, or taken from the
	// family the graph remembered (an earlier fit's draw, or a concurrent
	// fit's draw this one waited for). They are not persisted: both are
	// zero on a Fitted rebuilt from a record.
	SamplesDrawn  int
	SamplesReused int
}

// sampleTask describes one sample+profile pipeline of a fit — the main
// sample run (index 0) or one additional training-ratio run — by the
// options its sample is drawn with. Its seed is fixed before execution
// starts, which is what makes the parallel fan-out bit-identical to the
// sequential path.
type sampleTask = sampling.Options

// sampleOutcome is a completed sampleTask's artifacts.
type sampleOutcome struct {
	sample *sampling.Result
	reused bool
	run    *algorithms.RunInfo
}

// sampleMemo names the memo a graph keeps the samples drawn from it in.
type sampleMemo struct{}

// sampleFamily is what the samples of one fit share, and what every fit
// with the same method and base seed shares with it: the memo holds the
// samples of one such family per graph. A member's own ratio and derived
// seed are its sampleTask, so family and task together are everything
// sampling.Sample reads.
type sampleFamily struct {
	method sampling.Method
	seed   uint64
}

// drawSlots lets at most max(1, GOMAXPROCS-1) sample draws run at once in
// the process. A draw is the one stage of a fit that never blocks — a walk
// over the graph with no barrier, channel or lock in it — so as many
// draws as there are Ps hold every P until the scheduler preempts one,
// and a process that also serves requests reads its network only then
// (the runtime polls it when a P runs out of work, or from sysmon every
// 10 ms). One P kept free of draws is what keeps a warm answer's latency
// from depending on how fast the fits beside it are; see DESIGN.md §10.
var drawSlots = make(chan struct{}, max(1, runtime.GOMAXPROCS(0)-1))

// sample returns task t's sample of g. A sample is a pure function of
// (g, method, ratio, seed) and immutable once drawn (it aliases no pooled
// workspace buffer), so g remembers the most recent family's samples and
// the second to fifth algorithm fitted on a (graph, seed) draw none: a
// dataset's algorithms share one set of samples, as in the paper, where
// the sample is an input of a sample run. Fits that interleave different
// seeds on one graph replace each other's family and pay for every draw,
// which is the cost of not remembering; see DESIGN.md §8.
func (p *Predictor) sample(g *graph.Graph, t sampleTask) (s *sampling.Result, reused bool, err error) {
	family := sampleFamily{method: p.opts.Method, seed: p.opts.Sampling.Seed}
	v, reused, err := g.Memo(sampleMemo{}).Do(family, t, func() (any, error) {
		drawSlots <- struct{}{}
		defer func() { <-drawSlots }()
		return sampling.Sample(g, p.opts.Method, t)
	})
	if err != nil {
		return nil, false, err
	}
	return v.(*sampling.Result), reused, nil
}

// Fit runs the expensive half of the pipeline for alg on g: sample the
// graph, profile the transformed sample run (plus one run per additional
// training ratio), and fit the cost model. The result can be cached and
// extrapolated many times.
func (p *Predictor) Fit(alg algorithms.Algorithm, g *graph.Graph) (*Fitted, error) {
	return p.FitContext(context.Background(), alg, g)
}

// FitContext is Fit with cancellation: the per-ratio sample pipelines run
// concurrently on Options.Pool (or a transient Options.Parallelism-sized
// pool), and ctx cancels pipelines that have not started yet. Each
// pipeline's randomness is fixed by its ratio index before execution
// (sampling.DeriveSeed), so the fitted model's coefficients are
// bit-identical at every parallelism level. Cancellation is observed
// between pipeline stages, not inside a profiled run.
//
// A pipeline's sample is drawn once per (graph, method, ratio, seed) and
// remembered on g (see sample), so only the first algorithm fitted on a
// dataset pays for sampling. The draws themselves are allocation-light by
// construction: every pipeline draws on pooled sampling workspaces
// (epoch-stamped membership tables, reused visited buffers) and on g's
// shared degree artifacts (the BRJ seed ordering is built once per graph,
// not once per ratio), so a fit's four training-ratio samples — and every
// later fit on the same cached graph — reuse the same steady-state memory
// whether they run sequentially or fanned out on the pool. See DESIGN.md
// §8.
func (p *Predictor) FitContext(ctx context.Context, alg algorithms.Algorithm, g *graph.Graph) (*Fitted, error) {
	tasks, outcomes, err := p.runPipelines(ctx, alg, g)
	if err != nil {
		return nil, err
	}
	return p.train(alg, tasks, outcomes)
}

// runPipelines is FitContext's expensive half: one sample → transformed,
// profiled run pipeline per task, on the pool.
func (p *Predictor) runPipelines(ctx context.Context, alg algorithms.Algorithm, g *graph.Graph) ([]sampleTask, []sampleOutcome, error) {
	// Task 0 is the main sample run; the rest are the additional
	// training-ratio runs in declaration order, each seeded from its
	// index in Options.TrainingRatios.
	tasks := []sampleTask{p.opts.Sampling}
	for i, ratio := range p.opts.TrainingRatios {
		if ratio == p.opts.Sampling.Ratio {
			continue // the main sample run already contributes
		}
		tasks = append(tasks, sampleTask{
			Ratio: ratio,
			Seed:  sampling.DeriveSeed(p.opts.Sampling.Seed, uint64(i)),
		})
	}

	pool := p.opts.Pool
	if pool == nil {
		pool = parallel.NewPool(p.opts.Parallelism)
	}
	outcomes := make([]sampleOutcome, len(tasks))
	err := pool.ForEach(ctx, len(tasks), func(taskCtx context.Context, i int) error {
		t := tasks[i]
		// Sample run input: structure-preserving sample of g.
		s, reused, err := p.sample(g, t)
		if err != nil {
			if i == 0 {
				return fmt.Errorf("core: sampling: %w", err)
			}
			return fmt.Errorf("core: training sample at ratio %v: %w", t.Ratio, err)
		}
		// Cancellation boundary between the two pipeline stages: the
		// profiled run is the expensive half of a pipeline, so a fit past
		// its deadline stops here instead of pricing a doomed run.
		if err := taskCtx.Err(); err != nil {
			return err
		}
		// Transform function: adjust convergence parameters to the
		// sample, then profile the transformed run.
		ri, err := alg.Transformed(s.VertexRatio).Run(s.Graph, p.opts.BSP)
		if err != nil {
			if i == 0 {
				return fmt.Errorf("core: sample run: %w", err)
			}
			return fmt.Errorf("core: training sample run at ratio %v: %w", t.Ratio, err)
		}
		outcomes[i] = sampleOutcome{sample: s, reused: reused, run: ri}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return tasks, outcomes, nil
}

// train is FitContext's second half: fit the cost model on the pipelines'
// profiles and assemble the Fitted.
func (p *Predictor) train(alg algorithms.Algorithm, tasks []sampleTask, outcomes []sampleOutcome) (*Fitted, error) {
	sample, sampleRun := outcomes[0].sample, outcomes[0].run

	// Cost model: train on the sample run, the additional-ratio sample
	// runs, and any history — assembled in the sequential path's order.
	iterFeats := features.FromProfile(sampleRun.Profile, p.opts.Mode)
	training := append(append([]costmodel.TrainingRun(nil), p.opts.History...),
		costmodel.TrainingRun{Source: "sample", Iters: iterFeats})
	for i := 1; i < len(tasks); i++ {
		training = append(training, costmodel.FromProfile(
			fmt.Sprintf("sample sr=%.2f", tasks[i].Ratio),
			outcomes[i].run.Profile, p.opts.Mode))
	}
	model, err := costmodel.Train(training, p.opts.CostModel)
	if err != nil {
		return nil, fmt.Errorf("core: training cost model: %w", err)
	}

	workers := p.opts.BSP.Workers
	if workers == 0 {
		workers = bsp.DefaultWorkers
	}
	f := &Fitted{
		Algorithm:             alg.Name(),
		Iterations:            sampleRun.Iterations,
		Model:                 model,
		IterFeatures:          iterFeats,
		SampleVertices:        sample.Graph.NumVertices(),
		SampleEdges:           sample.Graph.NumEdges(),
		SampleVertexRatio:     sample.VertexRatio,
		SampleEdgeRatio:       sample.EdgeRatio,
		SampleCriticalShare:   bsp.CriticalShareOf(sample.Graph, workers),
		ProfiledCriticalShare: sampleRun.Profile.CriticalShare(),
		SampleRunSeconds:      sampleRun.Profile.TotalSeconds(),
		SampleWorkers:         workers,
		Mode:                  p.opts.Mode,
		CostModel:             p.opts.CostModel,
	}
	for _, tr := range training {
		f.TrainingRows = append(f.TrainingRows, tr.Iters...)
	}
	for _, o := range outcomes {
		if o.reused {
			f.SamplesReused++
		} else {
			f.SamplesDrawn++
		}
	}
	for i := range sampleRun.Profile.Supersteps {
		f.RemoteBytesPerIter = append(f.RemoteBytesPerIter,
			float64(sampleRun.Profile.Supersteps[i].Total().RemoteMessageBytes))
	}
	return f, nil
}

// Extrapolate runs the cheap half of the pipeline: scale the fitted sample
// features to g and translate them into per-iteration runtime through the
// cached cost model. workers is the what-if cluster size of the target
// run; zero selects the sample cluster's size (the paper's assumption iii
// setting). A non-default workers answers capacity-planning questions —
// the cost model's per-unit rates are hardware properties, so only the
// critical-path share moves — at the cost of stepping outside the paper's
// matched-environment assumption.
func (f *Fitted) Extrapolate(g *graph.Graph, workers int) (*Prediction, error) {
	return f.price(g, workers, nil)
}

// price is Extrapolate's body, shared with ExtrapolateBlended: it derives
// the extrapolation scale once and prices every sample-run iteration,
// scaling its vector into one reused buffer — or, when xs is non-nil
// (one features.PoolSize slot per IterFeatures entry), into its own slot,
// which hands the interpolation regime exactly the vectors priced here.
func (f *Fitted) price(g *graph.Graph, workers int, xs []features.Vector) (*Prediction, error) {
	if workers <= 0 {
		workers = f.SampleWorkers
	}
	scale, shareFactor, shareG, err := f.extrapolationScale(g, workers)
	if err != nil {
		return nil, err
	}

	// Per-iteration prediction on extrapolated features.
	pred := &Prediction{
		Algorithm:           f.Algorithm,
		Iterations:          f.Iterations,
		Model:               f.Model,
		Scale:               scale,
		SampleVertexRatio:   f.SampleVertexRatio,
		SampleEdgeRatio:     f.SampleEdgeRatio,
		SampleRunSeconds:    f.SampleRunSeconds,
		CriticalShareSample: f.ProfiledCriticalShare,
		CriticalShareFull:   shareG,
		PerIterationSeconds: make([]float64, len(f.IterFeatures)),
	}
	var buf [features.PoolSize]float64
	for i, it := range f.IterFeatures {
		x := features.Vector(buf[:])
		if xs != nil {
			x = xs[i]
		}
		scale.ApplyInto(x, it.Vector, shareFactor)
		secs := f.Model.PredictIteration(x)
		pred.PerIterationSeconds[i] = secs
		pred.SuperstepSeconds += secs
		if i < len(f.RemoteBytesPerIter) {
			pred.PredictedRemoteMessageBytes += f.RemoteBytesPerIter[i] * scale.EE
		}
	}
	return pred, nil
}

// extrapolationScale computes price's extrapolation inputs: the eV/eE
// scale from sample to g, the §3.4 critical-path share rescaling factor,
// and g's structural critical share at the given worker count.
func (f *Fitted) extrapolationScale(g *graph.Graph, workers int) (scale features.Scale, shareFactor, shareG float64, err error) {
	// Extrapolation factors from full-graph and sample sizes.
	scale, err = features.NewScale(g.NumVertices(), f.SampleVertices,
		g.NumEdges(), f.SampleEdges)
	if err != nil {
		return features.Scale{}, 0, 0, fmt.Errorf("core: %w", err)
	}

	// Critical-path adjustment: move vectors from the sample graph's
	// critical share to the full graph's (both known before execution).
	// Both shares are computed on the *input* graphs so they stay
	// consistent for algorithms that internally symmetrize (the
	// symmetrization distorts both shares equally, so the ratio holds).
	shareFactor = 1.0
	shareG = bsp.CriticalShareOf(g, workers)
	if f.Mode == features.ModeCriticalShare && f.SampleCriticalShare > 0 && shareG > 0 {
		shareFactor = shareG / f.SampleCriticalShare
	}
	return scale, shareFactor, shareG, nil
}
