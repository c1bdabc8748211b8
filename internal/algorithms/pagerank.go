package algorithms

import (
	"math"
	"slices"

	"predict/internal/bsp"
	"predict/internal/graph"
)

// PageRank computes vertex ranks by power iteration (§4.1). Convergence:
// the average per-vertex |Δ rank| between consecutive iterations drops
// below Tau. Its transform function scales Tau by 1/sr because the
// threshold is an absolute aggregate tuned to graph size:
// T = (d_S = d_G, τ_S = τ_G × 1/sr).
type PageRank struct {
	// Damping is the damping factor d, typically 0.85.
	Damping float64
	// Tau is the convergence threshold on the average delta change of
	// PageRank per vertex. The paper sets Tau = ε/N with tolerance level
	// ε in {0.01, 0.001}.
	Tau float64
	// MaxIterations caps the run; zero selects 200.
	MaxIterations int
}

// NewPageRank returns PageRank with the paper's defaults (d = 0.85 and a
// placeholder threshold; experiments set Tau = ε/N per dataset).
func NewPageRank() PageRank {
	return PageRank{Damping: 0.85, Tau: 1e-9, MaxIterations: 200}
}

// TauForTolerance returns the paper's threshold τ = ε/N for an n-vertex
// graph at tolerance level ε (§5.1).
func TauForTolerance(epsilon float64, n int) float64 {
	return epsilon / float64(n)
}

// PageRankIterations returns the Langville & Meyer upper bound on the
// number of power iterations needed to reach tolerance level epsilon with
// damping factor d — the analytical bound the paper compares against
// (§5.1), which ignores dataset characteristics and is loose in practice:
//
//	#iterations = log10(epsilon) / log10(d)
//
// For epsilon = 0.001, d = 0.85 this gives ~42 iterations, versus fewer
// than 21 observed on all of the paper's datasets — a 2x over-estimate.
func PageRankIterations(epsilon, damping float64) int {
	if epsilon <= 0 || epsilon >= 1 || damping <= 0 || damping >= 1 {
		return 0
	}
	return int(math.Ceil(math.Log10(epsilon) / math.Log10(damping)))
}

// Name implements Algorithm.
func (p PageRank) Name() string { return "PageRank" }

// Transformed implements Algorithm: τ_S = τ_G × 1/sr, configuration
// parameters (damping) unchanged.
func (p PageRank) Transformed(sr float64) Algorithm {
	p.Tau = p.Tau / sr
	return p
}

// Run implements Algorithm.
func (p PageRank) Run(g *graph.Graph, cfg bsp.Config) (*RunInfo, error) {
	ri, _, err := p.RunRanks(g, cfg)
	return ri, err
}

// RunRanks executes PageRank and additionally returns the final per-vertex
// ranks (used as top-k ranking input). It leaves a copy of the ranks on g
// for a top-k run with the same PageRank parameters under the same cfg to
// take instead of repeating this run (see ranksOn).
func (p PageRank) RunRanks(g *graph.Graph, cfg bsp.Config) (*RunInfo, []float64, error) {
	ri, ranks, err := p.runRanks(g, cfg)
	if err != nil {
		return nil, nil, err
	}
	// Cannot fail: the deposit's compute only copies.
	_, _, _ = g.Memo(ranksMemo{}).Do(p.ranksKey(cfg), nil, func() (any, error) {
		return slices.Clone(ranks), nil
	})
	return ri, ranks, nil
}

// ranksMemo names the memo a graph keeps PageRank output in.
type ranksMemo struct{}

// ranksKey is everything that determines a PageRank run's ranks on a
// given graph: the algorithm's parameters and the engine configuration as
// bsp resolves it. The worker count is part of it because the rank-share
// combiner adds floats in worker order, so ranks differ in the last bits
// between cluster sizes; the oracle is part of it because its memory
// budget can fail the run, and the seed rides along so that the key is
// simply the whole resolved configuration.
type ranksKey struct {
	pr  PageRank
	cfg bsp.ResolvedConfig
}

func (p PageRank) ranksKey(cfg bsp.Config) ranksKey {
	return ranksKey{pr: p, cfg: p.engineConfig(cfg).Resolved()}
}

// ranksOn returns the ranks p computes on g under cfg: the ones an
// earlier run (a PageRank fit on the same sample, typically) left on g,
// or else those of a run made now. The memo's family is the whole key, so
// a graph holds the ranks of the most recent configuration only. The
// slice is shared: callers must not modify it.
func (p PageRank) ranksOn(g *graph.Graph, cfg bsp.Config) ([]float64, error) {
	v, _, err := g.Memo(ranksMemo{}).Do(p.ranksKey(cfg), nil, func() (any, error) {
		_, ranks, err := p.runRanks(g, cfg)
		return ranks, err
	})
	if err != nil {
		return nil, err
	}
	return v.([]float64), nil
}

// engineConfig applies p's iteration cap to cfg.
func (p PageRank) engineConfig(cfg bsp.Config) bsp.Config {
	if p.MaxIterations > 0 {
		cfg.MaxSupersteps = p.MaxIterations
	}
	return cfg
}

// runRanks is the run behind RunRanks and ranksOn.
func (p PageRank) runRanks(g *graph.Graph, cfg bsp.Config) (*RunInfo, []float64, error) {
	cfg = p.engineConfig(cfg)
	prog := &pageRankProgram{damping: p.Damping, n: float64(g.NumVertices())}
	eng := bsp.NewEngine[prValue, float64](g, prog, cfg)
	// Floating-point addition is not associative at the bit level; the
	// engine folds a vertex's inbox in its fixed delivery order, which is
	// what keeps ranks, delta aggregates and iteration counts bit-identical
	// on every run.
	eng.SetCombiner(func(a, b float64) float64 { return a + b })
	n := float64(g.NumVertices())
	tau := p.Tau
	eng.SetHalt(func(s bsp.SuperstepInfo) bool {
		if s.Superstep == 0 {
			return false // no delta defined before the first propagation
		}
		return s.Aggregates[aggDelta]/n < tau
	})
	res, err := eng.Run()
	if err != nil {
		return nil, nil, err
	}
	ranks := make([]float64, len(res.Values))
	for i, v := range res.Values {
		ranks[i] = v.rank
	}
	return info(p.Name(), res), ranks, nil
}

const (
	aggDelta = "pr.delta"
	// aggDangling accumulates the rank mass of zero-out-degree vertices;
	// it is redistributed uniformly in the next iteration (the standard
	// stochastic-matrix correction). Samples are dangling-heavy — most
	// sampled vertices lose out-edges — so without redistribution their
	// delta trajectories diverge from the full graph's.
	aggDangling = "pr.dangling"
)

// prValue is the per-vertex PageRank state.
type prValue struct {
	rank float64
}

type pageRankProgram struct {
	damping float64
	n       float64
}

func (p *pageRankProgram) Init(_ *graph.Graph, _ bsp.VertexID) prValue {
	return prValue{rank: 1 / p.n}
}

func (p *pageRankProgram) Compute(ctx *bsp.Context[float64], id bsp.VertexID, v *prValue, msgs []float64) {
	if ctx.Superstep() > 0 {
		var sum float64
		for _, m := range msgs {
			sum += m
		}
		// Dangling mass from the previous iteration is spread uniformly.
		dangling := ctx.Aggregate(aggDangling) / p.n
		newRank := (1-p.damping)/p.n + p.damping*(sum+dangling)
		delta := newRank - v.rank
		if delta < 0 {
			delta = -delta
		}
		ctx.AddToAggregate(aggDelta, delta)
		v.rank = newRank
	}
	if deg := ctx.Graph().OutDegree(id); deg > 0 {
		share := v.rank / float64(deg)
		ctx.SendToNeighbors(share)
	} else {
		ctx.AddToAggregate(aggDangling, v.rank)
	}
	// PageRank never votes to halt: termination is the master-side
	// convergence condition on the delta aggregate.
}

func (p *pageRankProgram) MessageBytes(float64) int { return 8 }

// FixedMessageBytes implements bsp.FixedSizeMessager: every rank share is
// one float64.
func (p *pageRankProgram) FixedMessageBytes() int { return 8 }
