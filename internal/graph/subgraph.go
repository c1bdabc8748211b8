package graph

import (
	"fmt"
	"slices"
	"sync"
)

// Mapping relates the vertices of an induced subgraph to the vertices of
// the graph it was taken from.
type Mapping struct {
	// ToOriginal maps a subgraph vertex ID to the original graph vertex ID.
	ToOriginal []VertexID
}

// subgraphScratch is the reusable induction workspace: an epoch-stamped
// membership table (see EpochTable) with a parallel relabel array, sized
// to the base graph. Bumping the epoch invalidates the whole table in
// O(1), so repeated inductions on the same base graph (one per training
// ratio per fit) skip the O(n) refill the old implementation paid per
// call. Pooled because fit pipelines run concurrently.
type subgraphScratch struct {
	in       EpochTable
	sampleID []VertexID  // valid only where in.Marked(v)
	pairs    []dstWeight // sortPairsStable's scratch for weighted buckets
}

var subgraphScratchPool = sync.Pool{New: func() any { return new(subgraphScratch) }}

// begin prepares the scratch for a base graph of n vertices.
func (s *subgraphScratch) begin(n int) {
	if s.in.Reset(n) {
		s.sampleID = make([]VertexID, n)
	}
	s.sampleID = s.sampleID[:n]
}

// InducedSubgraph returns the subgraph of g induced by the given vertex
// set: the vertices are relabeled densely in the order given, and every
// edge of g with both endpoints in the set is kept (with its weight).
// Duplicate vertices in the set are rejected, and self-loops are dropped
// (matching the Builder default the sampler has always used).
//
// The CSR is built directly in two passes over the relevant adjacency
// lists — count, then fill + per-bucket sort — sized exactly, with no
// intermediate triple edge list. Dedup is unnecessary: a built Graph's
// adjacency lists carry no parallel edges and the relabeling is injective,
// so the induced lists cannot contain duplicates either.
func InducedSubgraph(g *Graph, vertices []VertexID) (*Graph, *Mapping, error) {
	n := g.NumVertices()
	sc := subgraphScratchPool.Get().(*subgraphScratch)
	defer subgraphScratchPool.Put(sc)
	sc.begin(n)

	toOriginal := make([]VertexID, len(vertices))
	for i, v := range vertices {
		if int(v) < 0 || int(v) >= n {
			return nil, nil, fmt.Errorf("graph: induced subgraph: vertex %d out of range (n=%d)", v, n)
		}
		if sc.in.Marked(v) {
			return nil, nil, fmt.Errorf("graph: induced subgraph: duplicate vertex %d", v)
		}
		sc.in.Mark(v)
		sc.sampleID[v] = VertexID(i)
		toOriginal[i] = v
	}

	// Pass 1: exact per-vertex edge counts -> CSR offsets.
	ns := len(vertices)
	offsets := make([]int64, ns+1)
	for i, orig := range toOriginal {
		cnt := int64(0)
		for _, dst := range g.OutNeighbors(orig) {
			if dst != orig && sc.in.Marked(dst) {
				cnt++
			}
		}
		offsets[i+1] = offsets[i] + cnt
	}

	// Pass 2: fill relabeled destinations (and weights), then sort each
	// bucket in place — relabeling does not preserve the base graph's
	// per-bucket order, so the CSR invariant needs a per-bucket sort.
	m := offsets[ns]
	edges := make([]VertexID, m)
	var weights []float32
	if g.HasWeights() && m > 0 {
		weights = make([]float32, m)
	}
	for i, orig := range toOriginal {
		pos := offsets[i]
		srcW := g.OutWeights(orig)
		for j, dst := range g.OutNeighbors(orig) {
			if dst == orig || !sc.in.Marked(dst) {
				continue
			}
			edges[pos] = sc.sampleID[dst]
			if weights != nil {
				weights[pos] = srcW[j]
			}
			pos++
		}
		if weights != nil {
			sc.pairs = sortPairsStable(edges[offsets[i]:pos], weights[offsets[i]:pos], sc.pairs)
		} else {
			slices.Sort(edges[offsets[i]:pos])
		}
	}

	sub := &Graph{offsets: offsets, edges: edges, weights: weights}
	return sub, &Mapping{ToOriginal: toOriginal}, nil
}
