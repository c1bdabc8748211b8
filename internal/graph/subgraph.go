package graph

import (
	"fmt"
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
// to the base graph, and the buffers the two transpositions pass edges
// through. Bumping the epoch invalidates the whole table in O(1), so
// repeated inductions on the same base graph (one per training ratio per
// fit) skip the O(n) refill the old implementation paid per call. Pooled
// because fit pipelines run concurrently.
type subgraphScratch struct {
	in       EpochTable
	sampleID []VertexID // valid only where in.Marked(v)
	// rows holds the kept edges' relabeled destinations in base order,
	// row by row; cols the same edges' sources, grouped by destination.
	// rowW and colW carry the weights along.
	rows, cols []VertexID
	rowW, colW []float32
	colOff     []int // cols' row offsets, by destination
	cursor     []int
}

var subgraphScratchPool = sync.Pool{New: func() any { return new(subgraphScratch) }}

// begin prepares the scratch for a base graph of n vertices.
func (s *subgraphScratch) begin(n int) {
	if s.in.Reset(n) {
		s.sampleID = make([]VertexID, n)
	}
	s.sampleID = s.sampleID[:n]
}

// resize returns b with length n, reallocated only if it is too short.
func resize[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// InducedSubgraph returns the subgraph of g induced by the given vertex
// set: the vertices are relabeled densely in the order given, and every
// edge of g with both endpoints in the set is kept (with its weight).
// Duplicate vertices in the set are rejected, and self-loops are dropped
// (matching the Builder default the sampler has always used).
//
// The CSR is built without sorting. One walk of the sampled rows keeps
// each edge into the sample, relabeled, in base order; relabeling does not
// preserve the base graph's per-row order, so the kept edges are then
// transposed (a counting scatter by destination, visiting sources in
// ascending order) and transposed back (by source, visiting destinations
// in ascending order), which leaves every row ascending. Sorting is
// unnecessary because scattering in ascending order keeps each bucket
// ascending, and dedup because a built Graph's adjacency lists carry no
// parallel edges and the relabeling is injective.
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

	// Walk the sampled rows once: the kept edges, their rows' offsets and
	// each destination's in-degree (counted one place up, at colOff[d+1]).
	ns := len(vertices)
	weighted := g.HasWeights()
	offsets := make([]int64, ns+1)
	colOff := resize(sc.colOff, ns+1)
	clear(colOff)
	rows, rowW := sc.rows[:0], sc.rowW[:0]
	for i, orig := range toOriginal {
		srcW := g.OutWeights(orig)
		for j, dst := range g.OutNeighbors(orig) {
			if dst == orig || !sc.in.Marked(dst) {
				continue
			}
			d := sc.sampleID[dst]
			rows = append(rows, d)
			if weighted {
				rowW = append(rowW, srcW[j])
			}
			colOff[d+1]++
		}
		offsets[i+1] = int64(len(rows))
	}
	m := len(rows)
	for d := 0; d < ns; d++ {
		colOff[d+1] += colOff[d]
	}

	// Transpose: sources grouped by destination, ascending within each.
	cols := resize(sc.cols, m)
	var colW []float32
	if weighted {
		colW = resize(sc.colW, m)
	}
	cursor := resize(sc.cursor, ns)
	copy(cursor, colOff[:ns])
	for i := 0; i < ns; i++ {
		for k := offsets[i]; k < offsets[i+1]; k++ {
			d := rows[k]
			p := cursor[d]
			cols[p] = VertexID(i)
			if weighted {
				colW[p] = rowW[k]
			}
			cursor[d] = p + 1
		}
	}

	// Transpose back: destinations grouped by source, ascending within each.
	edges := make([]VertexID, m)
	var weights []float32
	if weighted && m > 0 {
		weights = make([]float32, m)
	}
	for i := 0; i < ns; i++ {
		cursor[i] = int(offsets[i])
	}
	for d := 0; d < ns; d++ {
		for p := colOff[d]; p < colOff[d+1]; p++ {
			src := cols[p]
			q := cursor[src]
			edges[q] = VertexID(d)
			if weighted {
				weights[q] = colW[p]
			}
			cursor[src] = q + 1
		}
	}
	sc.rows, sc.rowW, sc.cols, sc.colW, sc.colOff, sc.cursor = rows, rowW, cols, colW, colOff, cursor

	sub := &Graph{offsets: offsets, edges: edges, weights: weights}
	return sub, &Mapping{ToOriginal: toOriginal}, nil
}
