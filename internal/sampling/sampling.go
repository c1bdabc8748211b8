// Package sampling implements the graph-sampling techniques PREDIcT uses
// to construct sample runs (§3.2.1, §5.3): Random Jump (RJ), Biased Random
// Jump (BRJ, the paper's default, biased towards high out-degree hubs) and
// Metropolis–Hastings Random Walk (MHRW), plus a uniform vertex sampler as
// an ablation baseline.
//
// All methods return the subgraph induced by the visited vertex set,
// together with the visit order (which is the vertex mapping) and the
// achieved vertex/edge ratios that drive feature extrapolation.
package sampling

import (
	"fmt"
	"math/rand/v2"

	"predict/internal/graph"
)

// Method selects a sampling technique.
type Method string

// Supported sampling methods.
const (
	// RandomJump performs random walks with uniform restarts (Leskovec &
	// Faloutsos). It cannot get stuck in isolated regions.
	RandomJump Method = "RJ"
	// BiasedRandomJump is RJ with walk restarts drawn from the top
	// out-degree hub vertices ("the core of the network"). It is the
	// paper's default method.
	BiasedRandomJump Method = "BRJ"
	// MetropolisHastings removes the degree bias inherent in random walks
	// by rejecting moves to higher-degree vertices probabilistically.
	MetropolisHastings Method = "MHRW"
	// UniformVertex ignores structure entirely: vertices are chosen
	// uniformly at random. Used as an ablation baseline; it destroys
	// connectivity on sparse graphs.
	UniformVertex Method = "UNI"
)

// Methods lists the techniques compared in the paper's Figure 9.
func Methods() []Method {
	return []Method{BiasedRandomJump, RandomJump, MetropolisHastings}
}

// Options parameterizes a sampling run.
type Options struct {
	// Ratio is the target fraction of vertices to sample, in (0, 1].
	Ratio float64
	// Seed drives all randomness; equal seeds give identical samples.
	Seed uint64
}

// The paper's walk constants (§3.2.1). Every sample behind a pin, a
// figure or a served prediction was drawn with these.
const (
	// restartProb is the walk restart probability p.
	restartProb = 0.15
	// seedFraction is the share of the highest out-degree vertices BRJ
	// restarts from (k = 1% of vertices).
	seedFraction = 0.01
	// maxStepFactor bounds a walk at maxStepFactor * target steps before
	// the uniform fill takes over.
	maxStepFactor = 400
)

// newRNG builds the sampling PCG stream for a seed: the second word is a
// fixed xor-mix of the first, so equal seeds give identical walks.
func newRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x6a09e667f3bcc909))
}

// DeriveSeed maps a base sampling seed and a stream index to the seed of
// the stream-th auxiliary sampling run (the fit pipeline's per-training-
// ratio runs). The derivation depends only on base and stream — never on
// execution order — which is what makes the parallel and sequential fit
// paths draw bit-identical samples. The scheme itself is the simple
// base+stream+1 the sequential pipeline has always used: Sample feeds
// seeds through PCG's own mixing (rand.NewPCG with two derived words),
// so adjacent seeds are already decorrelated, and keeping the scheme
// keeps every committed EXPERIMENTS.md number reproducible.
func DeriveSeed(base, stream uint64) uint64 {
	return base + stream + 1
}

// Result is a sample: the induced subgraph, the vertex mapping back to the
// original graph, and the achieved ratios.
type Result struct {
	Method Method
	// Vertices holds the original-graph IDs in visit order, which is also
	// the mapping back: sample vertex i is original vertex Vertices[i].
	Vertices []graph.VertexID
	Graph    *graph.Graph // subgraph induced by Vertices
	// VertexRatio is |V_S| / |V_G|; EdgeRatio is |E_S| / |E_G|. The
	// extrapolator scales vertex-driven features by 1/VertexRatio and
	// edge-driven features by 1/EdgeRatio (§3.4).
	VertexRatio float64
	EdgeRatio   float64
}

// Sample draws a sample of g using the given method.
func Sample(g *graph.Graph, method Method, opts Options) (*Result, error) {
	n := g.NumVertices()
	if n == 0 {
		return nil, fmt.Errorf("sampling: empty graph")
	}
	if opts.Ratio <= 0 || opts.Ratio > 1 {
		return nil, fmt.Errorf("sampling: ratio %v out of (0, 1]", opts.Ratio)
	}
	target := int(float64(n)*opts.Ratio + 0.5)
	if target < 1 {
		target = 1
	}
	if target > n {
		target = n
	}
	rng := newRNG(opts.Seed)

	// The walks run on a pooled workspace (epoch-stamped membership table,
	// reusable visited buffer): steady-state draws allocate nothing that
	// scales with the base graph. Nothing in the workspace touches the rng,
	// so visited sequences are bit-identical to the pre-workspace sampler
	// (pinned by TestSamplingDeterminismPins).
	ws := workspacePool.Get().(*workspace)
	defer workspacePool.Put(ws)
	ws.begin(n, target)
	switch method {
	case RandomJump:
		walkSample(g, target, rng, nil, ws)
	case BiasedRandomJump:
		walkSample(g, target, rng, topOutDegreeSeeds(g), ws)
	case MetropolisHastings:
		mhrwSample(g, target, rng, ws)
	case UniformVertex:
		uniformSample(n, target, rng, ws)
	default:
		return nil, fmt.Errorf("sampling: unknown method %q", method)
	}

	sub, mapping, err := graph.InducedSubgraph(g, ws.visited)
	if err != nil {
		return nil, fmt.Errorf("sampling: inducing subgraph: %w", err)
	}
	// The mapping's ToOriginal is InducedSubgraph's own copy of the visit
	// sequence (sample vertex i is the i-th visited), so it outlives the
	// workspace buffer returning to the pool.
	visited := mapping.ToOriginal
	res := &Result{
		Method:      method,
		Vertices:    visited,
		Graph:       sub,
		VertexRatio: float64(len(visited)) / float64(n),
	}
	if ge := g.NumEdges(); ge > 0 {
		res.EdgeRatio = float64(sub.NumEdges()) / float64(ge)
	}
	return res, nil
}

// topOutDegreeSeeds returns the round(seedFraction*n) (at least one)
// vertices with the highest out-degrees, ties broken by vertex ID for
// determinism. The ordering is the graph's memoized degree artifact
// (counting sort, built once per graph), which reproduces the old
// per-call sort.Slice total order bit-exactly; the returned prefix is
// shared and must not be modified.
func topOutDegreeSeeds(g *graph.Graph) []graph.VertexID {
	n := g.NumVertices()
	k := int(float64(n)*seedFraction + 0.5)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return g.VerticesByOutDegree()[:k]
}

// walkSample runs random walks with restarts until target distinct vertices
// are visited. If seeds is nil, restarts are uniform over all vertices
// (RJ); otherwise restarts are uniform over seeds (BRJ).
func walkSample(g *graph.Graph, target int, rng *rand.Rand, seeds []graph.VertexID, ws *workspace) {
	n := g.NumVertices()
	restart := func() graph.VertexID {
		if seeds != nil {
			return seeds[rng.IntN(len(seeds))]
		}
		return graph.VertexID(rng.IntN(n))
	}

	cur := restart()
	ws.add(cur)
	maxSteps := maxStepFactor * target
	for steps := 0; len(ws.visited) < target && steps < maxSteps; steps++ {
		adj := g.OutNeighbors(cur)
		if len(adj) == 0 || rng.Float64() < restartProb {
			cur = restart()
		} else {
			cur = adj[rng.IntN(len(adj))]
		}
		ws.add(cur)
	}
	fillUniform(n, target, rng, ws)
}

// mhrwSample runs a Metropolis–Hastings random walk whose stationary
// distribution is uniform over vertices: a proposed move from v to w is
// accepted with probability min(1, deg(v)/deg(w)). Restarts use the same
// probability as RJ so the walk cannot stall in a sink region.
func mhrwSample(g *graph.Graph, target int, rng *rand.Rand, ws *workspace) {
	n := g.NumVertices()
	cur := graph.VertexID(rng.IntN(n))
	ws.add(cur)
	maxSteps := maxStepFactor * target
	for steps := 0; len(ws.visited) < target && steps < maxSteps; steps++ {
		adj := g.OutNeighbors(cur)
		if len(adj) == 0 || rng.Float64() < restartProb {
			cur = graph.VertexID(rng.IntN(n))
			ws.add(cur)
			continue
		}
		proposal := adj[rng.IntN(len(adj))]
		dv, dw := g.OutDegree(cur), g.OutDegree(proposal)
		if dw == 0 {
			// Accepting would strand the walk; treat as rejection.
			continue
		}
		if rng.Float64() < float64(dv)/float64(dw) {
			cur = proposal
			ws.add(cur)
		}
	}
	fillUniform(n, target, rng, ws)
}

// uniformSample picks target vertices uniformly without replacement.
func uniformSample(n, target int, rng *rand.Rand, ws *workspace) {
	perm := rng.Perm(n)
	for i := 0; i < target; i++ {
		ws.add(graph.VertexID(perm[i]))
	}
}

// fillUniform tops up a sample to the target size with uniformly chosen
// unvisited vertices; reached only when walks exhaust their step budget on
// pathological graphs. (rng.Perm allocates, but only on that cold path —
// and only there, so the rng stream stays identical to the old sampler's.)
func fillUniform(n, target int, rng *rand.Rand, ws *workspace) {
	if len(ws.visited) >= target {
		return
	}
	perm := rng.Perm(n)
	for _, vi := range perm {
		if len(ws.visited) >= target {
			return
		}
		ws.add(graph.VertexID(vi))
	}
}

// Fidelity quantifies how well a sample preserves the key graph properties
// the paper's sampling requirements call for (§4.1): degree-distribution
// closeness (KS D-statistic, as in Leskovec & Faloutsos Table 1),
// connectivity, and in/out degree proportionality.
type Fidelity struct {
	// DStatOut is the KS distance between sample and graph out-degree
	// distributions (0 = identical).
	DStatOut float64
	// DStatIn is the same for in-degrees.
	DStatIn float64
	// ConnectivitySample/ConnectivityGraph are the largest-WCC fractions.
	ConnectivitySample float64
	ConnectivityGraph  float64
	// InOutRatioSample/Graph are the mean per-vertex in/out degree ratios.
	InOutRatioSample float64
	InOutRatioGraph  float64
}

// MeasureFidelity computes sample-vs-graph fidelity metrics. The degree
// sequences on both sides come from the graphs' memoized sorted-degree
// artifacts, so measuring many samples against the same base graph pays
// the full-graph degree sort once instead of once per sample.
func MeasureFidelity(g *graph.Graph, r *Result) Fidelity {
	return Fidelity{
		DStatOut:           graph.KolmogorovSmirnovSorted(r.Graph.SortedOutDegrees(), g.SortedOutDegrees()),
		DStatIn:            graph.KolmogorovSmirnovSorted(r.Graph.SortedInDegrees(), g.SortedInDegrees()),
		ConnectivitySample: graph.LargestComponentFraction(r.Graph),
		ConnectivityGraph:  graph.LargestComponentFraction(g),
		InOutRatioSample:   graph.InOutRatioStats(r.Graph),
		InOutRatioGraph:    graph.InOutRatioStats(g),
	}
}
