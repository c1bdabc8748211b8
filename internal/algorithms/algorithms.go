// Package algorithms implements the iterative graph algorithms the paper
// evaluates (§4, §5): PageRank, semi-clustering, top-k ranking, connected
// components and neighborhood estimation. Each algorithm is a BSP vertex
// program plus a convergence condition, and knows its own transform
// function — the adjustment PREDIcT applies to its parameters when running
// on a sample (§3.2.2).
//
// The three end-to-end use cases cover the paper's runtime categories:
// PageRank has near-constant per-iteration runtime; semi-clustering varies
// through message *sizes*; top-k ranking varies through message *counts*;
// connected components and neighborhood estimation add sparse-computation
// and sketch-propagation patterns.
package algorithms

import (
	"fmt"

	"predict/internal/bsp"
	"predict/internal/graph"
)

// RunInfo is the type-erased outcome of an algorithm run: everything the
// prediction pipeline consumes.
type RunInfo struct {
	// Algorithm is the algorithm's Name().
	Algorithm string
	// Iterations is the number of supersteps executed.
	Iterations int
	// Converged reports whether the convergence condition fired (vs the
	// superstep cap).
	Converged bool
	// Profile carries per-superstep, per-worker features and simulated
	// times.
	Profile *bsp.Profile
}

// Algorithm is the uniform interface between the prediction pipeline and
// a concrete iterative algorithm.
type Algorithm interface {
	// Name identifies the algorithm (stable across Transformed copies).
	Name() string
	// Transformed returns a copy of the algorithm configured for a sample
	// run at vertex sampling ratio sr: the paper's transform function
	// T = (Conf_S => Conf_G, Conv_S => Conv_G). Algorithms whose
	// convergence threshold is an absolute aggregate (PageRank) scale it
	// by 1/sr; ratio-based thresholds (semi-clustering, top-k) are kept.
	Transformed(sr float64) Algorithm
	// Run executes the algorithm on g under cfg.
	Run(g *graph.Graph, cfg bsp.Config) (*RunInfo, error)
}

// canonicalNames maps every name ByName accepts to its algorithm's Name().
var canonicalNames = map[string]string{
	"PR": "PageRank", "SC": "SemiClustering", "TOPK": "TopKRanking",
	"CC": "ConnectedComponents", "NH": "NeighborhoodEstimation",
	"PageRank": "PageRank", "SemiClustering": "SemiClustering", "TopKRanking": "TopKRanking",
	"ConnectedComponents": "ConnectedComponents", "NeighborhoodEstimation": "NeighborhoodEstimation",
}

// CanonicalName returns the Name() of the algorithm ByName constructs
// for name — "PR" and "PageRank" both give "PageRank" — without
// constructing it, and false for a name ByName does not know.
func CanonicalName(name string) (string, bool) {
	canonical, ok := canonicalNames[name]
	return canonical, ok
}

// ByName constructs each paper algorithm with its default configuration.
func ByName(name string) (Algorithm, error) {
	switch canonicalNames[name] {
	case "PageRank":
		return NewPageRank(), nil
	case "SemiClustering":
		return NewSemiClustering(), nil
	case "TopKRanking":
		return NewTopKRanking(), nil
	case "ConnectedComponents":
		return NewConnectedComponents(), nil
	case "NeighborhoodEstimation":
		return NewNeighborhoodEstimation(), nil
	}
	return nil, fmt.Errorf("algorithms: unknown algorithm %q", name)
}

// info assembles a RunInfo from an engine result.
func info[V any](name string, res *bsp.Result[V]) *RunInfo {
	return &RunInfo{
		Algorithm:  name,
		Iterations: res.Supersteps,
		Converged:  res.Converged,
		Profile:    res.Profile,
	}
}
