// Package graph provides the directed-graph substrate used throughout the
// PREDIcT reproduction: a compact CSR (compressed sparse row)
// representation, a builder, induced subgraphs with vertex mappings, and
// the structural properties that drive sampling fidelity (degree
// statistics, effective diameter, clustering coefficient, power-law
// exponent, connected components).
//
// Graphs are immutable once built. Vertex identifiers are dense integers
// in [0, NumVertices). Parallel edges are deduplicated by the builder and
// self-loops are dropped.
package graph

import (
	"fmt"
	"sync"
)

// VertexID identifies a vertex. IDs are dense: every graph with n vertices
// uses exactly the IDs 0..n-1.
type VertexID int32

// Graph is an immutable directed graph in CSR form. The zero value is an
// empty graph with no vertices.
type Graph struct {
	offsets []int64    // len = n+1; out-edges of v are edges[offsets[v]:offsets[v+1]]
	edges   []VertexID // concatenated adjacency lists, sorted per vertex
	weights []float32  // optional, parallel to edges; nil if unweighted

	// memos holds what is remembered on this graph, one Memo per owner:
	// what it derives from itself (degree artifacts, sorted in-degrees,
	// the symmetric closure; see derived) and what other packages compute
	// on it (samples drawn from it, ranks, critical shares); see memo.go.
	memoMu sync.Mutex
	memos  map[any]*Memo

	// mapped is non-nil for graphs whose CSR slices alias an mmap'd
	// snapshot (mmapSnapshot). The reference keeps the mapping alive for
	// as long as the Graph is reachable, so the finalizer-driven munmap
	// can never pull pages out from under a live graph. See mmap.go.
	mapped *mmapRegion
}

// NumVertices reports the number of vertices.
func (g *Graph) NumVertices() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// NumEdges reports the number of directed edges.
func (g *Graph) NumEdges() int64 {
	return int64(len(g.edges))
}

// OutDegree reports the number of out-edges of v.
func (g *Graph) OutDegree(v VertexID) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// OutNeighbors returns the out-neighbors of v as a shared slice view.
// Callers must not modify the returned slice.
func (g *Graph) OutNeighbors(v VertexID) []VertexID {
	return g.edges[g.offsets[v]:g.offsets[v+1]]
}

// HasWeights reports whether the graph carries edge weights.
func (g *Graph) HasWeights() bool { return g.weights != nil }

// OutWeights returns the weights parallel to OutNeighbors(v). It returns
// nil for unweighted graphs.
func (g *Graph) OutWeights(v VertexID) []float32 {
	if g.weights == nil {
		return nil
	}
	return g.weights[g.offsets[v]:g.offsets[v+1]]
}

// inDegrees counts every vertex's in-edges in one pass over the edge
// array; nothing is kept.
func (g *Graph) inDegrees() []int {
	deg := make([]int, g.NumVertices())
	for _, dst := range g.edges {
		deg[dst]++
	}
	return deg
}

// transpose builds the reverse CSR of g by counting scatter: row v holds
// the sources of v's in-edges, ascending because sources are visited in
// ascending order, each with its edge's weight when g carries weights.
// Self-loops are left out, as everywhere a graph is built. It is the one
// builder of a reverse adjacency: Reverse wraps it and Undirected merges
// against it.
func (g *Graph) transpose() (offsets []int64, edges []VertexID, weights []float32) {
	n := g.NumVertices()
	offsets = make([]int64, n+1)
	for src := 0; src < n; src++ {
		for _, dst := range g.OutNeighbors(VertexID(src)) {
			if dst != VertexID(src) {
				offsets[dst+1]++
			}
		}
	}
	for i := 1; i <= n; i++ {
		offsets[i] += offsets[i-1]
	}
	edges = make([]VertexID, offsets[n])
	if g.weights != nil && len(g.edges) > 0 { // no edge, so no weight either
		weights = make([]float32, offsets[n])
	}
	cursor := make([]int64, n)
	copy(cursor, offsets[:n])
	for src := 0; src < n; src++ {
		ws := g.OutWeights(VertexID(src))
		for i, dst := range g.OutNeighbors(VertexID(src)) {
			if dst == VertexID(src) {
				continue
			}
			edges[cursor[dst]] = VertexID(src)
			if weights != nil {
				weights[cursor[dst]] = ws[i]
			}
			cursor[dst]++
		}
	}
	return offsets, edges, weights
}

// HasEdge reports whether the directed edge (src, dst) exists. It runs a
// binary search over src's sorted adjacency list.
func (g *Graph) HasEdge(src, dst VertexID) bool {
	adj := g.OutNeighbors(src)
	lo, hi := 0, len(adj)
	for lo < hi {
		mid := (lo + hi) / 2
		if adj[mid] < dst {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(adj) && adj[lo] == dst
}

// AvgOutDegree reports the mean out-degree, 0 for an empty graph.
func (g *Graph) AvgOutDegree() float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	return float64(g.NumEdges()) / float64(n)
}

// MaxOutDegree reports the largest out-degree in the graph, from the
// memoized degree artifacts (no sort, O(1) after the first call).
func (g *Graph) MaxOutDegree() int {
	return g.ensureDegreeArtifacts().maxOut
}

// String summarizes the graph as "Graph(n=..., m=...)".
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(n=%d, m=%d)", g.NumVertices(), g.NumEdges())
}

// Reverse returns the transpose graph: every edge (u, v) becomes (v, u).
// Weights are carried over.
func (g *Graph) Reverse() *Graph {
	offsets, edges, weights := g.transpose()
	return &Graph{offsets: offsets, edges: edges, weights: weights}
}

// Undirected returns the symmetric closure of g: for every edge (u, v) the
// result contains both (u, v) and (v, u), deduplicated, self-loops
// dropped. Unweighted inputs produce a result with weight 1.0 on every
// edge, which is the form the semi-clustering algorithm expects. Where g
// holds both (u, v) and (v, u) with different weights, both directions of
// the result carry the weight of the edge leaving the smaller endpoint —
// the one a Builder fed g's edges in order sees first.
//
// The closure is built once per graph and shared: connected components
// and semi-clustering both run on the closure of the same sample. It is
// safe for concurrent use.
func (g *Graph) Undirected() *Graph {
	return derived(g, undirectedKey, g.buildUndirected)
}

// buildUndirected builds the closure straight into CSR. A built graph's
// rows are strictly ascending, and so are its transpose's, so row r of
// the closure is the
// merge of r's out-row and in-row: counted in one pass, filled in a
// second, with no sort and no intermediate edge list.
func (g *Graph) buildUndirected() *Graph {
	n := g.NumVertices()
	if len(g.edges) == 0 {
		return &Graph{offsets: make([]int64, n+1)} // no edge, so no weight either
	}
	inOffsets, inEdges, inWeights := g.transpose()

	// mergeRow merges row r's two directions into edges/weights (or only
	// counts them when edges is nil) and returns the merged length.
	mergeRow := func(r VertexID, edges []VertexID, weights []float32) int {
		out, outW := g.OutNeighbors(r), g.OutWeights(r)
		lo, hi := inOffsets[r], inOffsets[r+1]
		in := inEdges[lo:hi]
		var inW []float32
		if inWeights != nil {
			inW = inWeights[lo:hi]
		}
		k, i, j := 0, 0, 0
		for i < len(out) || j < len(in) {
			var (
				x      VertexID
				fromIn bool
			)
			switch {
			case j == len(in) || (i < len(out) && out[i] < in[j]):
				x = out[i]
				i++
			case i == len(out) || in[j] < out[i]:
				x, fromIn = in[j], true
				j++
			default: // both directions exist; the smaller endpoint's edge was added first
				x, fromIn = out[i], out[i] < r
				i++
				j++
			}
			if x == r {
				continue
			}
			if edges != nil {
				w := float32(1)
				switch {
				case inW == nil:
				case fromIn:
					w = inW[j-1]
				default:
					w = outW[i-1]
				}
				edges[k], weights[k] = x, w
			}
			k++
		}
		return k
	}

	offsets := make([]int64, n+1)
	for r := 0; r < n; r++ {
		offsets[r+1] = offsets[r] + int64(mergeRow(VertexID(r), nil, nil))
	}
	edges := make([]VertexID, offsets[n])
	weights := make([]float32, offsets[n])
	for r := 0; r < n; r++ {
		mergeRow(VertexID(r), edges[offsets[r]:offsets[r+1]], weights[offsets[r]:offsets[r+1]])
	}
	return &Graph{offsets: offsets, edges: edges, weights: weights}
}
