package graph

import (
	"errors"
	"fmt"
	"slices"
)

// Builder accumulates edges and produces an immutable Graph. Edges may be
// added in any order; Build sorts adjacency lists, drops self-loops and
// deduplicates parallel edges (keeping the first weight seen).
//
// The zero Builder is not usable; construct with NewBuilder.
type Builder struct {
	n        int
	srcs     []VertexID
	dsts     []VertexID
	weights  []float32
	weighted bool
}

// NewBuilder returns a Builder for a graph with numVertices vertices
// (IDs 0..numVertices-1).
func NewBuilder(numVertices int) *Builder {
	return &Builder{n: numVertices}
}

// AddEdge records the directed edge (src, dst).
func (b *Builder) AddEdge(src, dst VertexID) {
	b.srcs = append(b.srcs, src)
	b.dsts = append(b.dsts, dst)
	if b.weighted {
		b.weights = append(b.weights, 1)
	}
}

// AddWeightedEdge records the directed edge (src, dst) with weight w. Mixing
// weighted and unweighted edges is allowed; unweighted edges default to 1.
func (b *Builder) AddWeightedEdge(src, dst VertexID, w float32) {
	if !b.weighted {
		// Backfill weight 1 for edges added before the first weighted one.
		b.weights = make([]float32, len(b.srcs), cap(b.srcs))
		for i := range b.weights {
			b.weights[i] = 1
		}
		b.weighted = true
	}
	b.srcs = append(b.srcs, src)
	b.dsts = append(b.dsts, dst)
	b.weights = append(b.weights, w)
}

// Build validates, sorts and deduplicates the accumulated edges and returns
// the immutable Graph. The builder must not be reused afterwards.
func (b *Builder) Build() (*Graph, error) {
	if b.n < 0 {
		return nil, errors.New("graph: negative vertex count")
	}
	for i := range b.srcs {
		if int(b.srcs[i]) < 0 || int(b.srcs[i]) >= b.n {
			return nil, fmt.Errorf("graph: edge %d has out-of-range source %d (n=%d)", i, b.srcs[i], b.n)
		}
		if int(b.dsts[i]) < 0 || int(b.dsts[i]) >= b.n {
			return nil, fmt.Errorf("graph: edge %d has out-of-range destination %d (n=%d)", i, b.dsts[i], b.n)
		}
	}

	// Counting sort by source to build CSR buckets, then sort each bucket
	// by destination and deduplicate.
	offsets := make([]int64, b.n+1)
	for _, s := range b.srcs {
		offsets[s+1]++
	}
	for i := 1; i <= b.n; i++ {
		offsets[i] += offsets[i-1]
	}
	edges := make([]VertexID, len(b.srcs))
	var weights []float32
	if b.weighted {
		weights = make([]float32, len(b.srcs))
	}
	cursor := make([]int64, b.n)
	copy(cursor, offsets[:b.n])
	for i, s := range b.srcs {
		edges[cursor[s]] = b.dsts[i]
		if weights != nil {
			weights[cursor[s]] = b.weights[i]
		}
		cursor[s]++
	}

	g := finishCSR(b.n, offsets, edges, weights)
	// Release builder storage.
	b.srcs, b.dsts, b.weights = nil, nil, nil
	return g, nil
}

// finishCSR turns a counting-sort scatter (per-source buckets in edge-
// insertion order) into a finished Graph: per-bucket sort + dedup,
// compacting in place. Weighted buckets sort stably (on a scratch reused
// across buckets) so dedup keeps the first weight *added*; unweighted
// buckets use the allocation-free in-place sort — equal ints are
// indistinguishable, so stability is moot. It is shared by Builder.Build
// and the parallel edge-list loader's shard merge, which makes the two
// construction paths bit-identical by construction in everything past the
// scatter. The offsets/edges/weights arrays are consumed (mutated).
func finishCSR(n int, offsets []int64, edges []VertexID, weights []float32) *Graph {
	outEdges := edges[:0]
	var outWeights []float32
	var pairScratch []dstWeight
	if weights != nil {
		outWeights = weights[:0]
	}
	newOffsets := make([]int64, n+1)
	for v := 0; v < n; v++ {
		lo, hi := offsets[v], offsets[v+1]
		bucket := edges[lo:hi]
		var wbucket []float32
		if weights != nil {
			wbucket = weights[lo:hi]
			pairScratch = sortPairsStable(bucket, wbucket, pairScratch)
		} else {
			slices.Sort(bucket)
		}
		var prev VertexID = -1
		for i, dst := range bucket {
			if dst == prev {
				continue // parallel edge
			}
			if int(dst) == v {
				prev = dst
				continue // self-loop
			}
			prev = dst
			outEdges = append(outEdges, dst)
			if weights != nil {
				outWeights = append(outWeights, wbucket[i])
			}
		}
		newOffsets[v+1] = int64(len(outEdges))
	}

	return &Graph{
		offsets: newOffsets,
		edges:   outEdges,
		weights: outWeights,
	}
}

// MustFromEdges builds an unweighted graph from a literal edge list and
// panics on error; intended for tests and examples.
func MustFromEdges(numVertices int, edges [][2]VertexID) *Graph {
	b := NewBuilder(numVertices)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
