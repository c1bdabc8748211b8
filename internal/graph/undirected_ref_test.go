package graph

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
)

// referenceUndirected is the pre-rewrite Builder-based closure, kept
// verbatim as the executable specification the direct-CSR build must
// match bit for bit — including which weight survives where g holds both
// directions of an edge with different weights (the Builder keeps the
// first one added).
func referenceUndirected(g *Graph) *Graph {
	n := g.NumVertices()
	b := NewBuilder(n)
	for src := 0; src < n; src++ {
		ws := g.OutWeights(VertexID(src))
		for i, dst := range g.OutNeighbors(VertexID(src)) {
			w := float32(1.0)
			if ws != nil {
				w = ws[i]
			}
			b.AddWeightedEdge(VertexID(src), dst, w)
			b.AddWeightedEdge(dst, VertexID(src), w)
		}
	}
	ug, err := b.Build()
	if err != nil {
		panic("graph: Undirected: " + err.Error())
	}
	return ug
}

// referenceReverse is the pre-rewrite Builder-based transpose (a sort per
// row), kept verbatim as the executable specification Graph.transpose
// must match bit for bit.
func referenceReverse(g *Graph) *Graph {
	n := g.NumVertices()
	b := NewBuilder(n)
	for src := 0; src < n; src++ {
		ws := g.OutWeights(VertexID(src))
		for i, dst := range g.OutNeighbors(VertexID(src)) {
			if ws != nil {
				b.AddWeightedEdge(dst, VertexID(src), ws[i])
			} else {
				b.AddEdge(dst, VertexID(src))
			}
		}
	}
	rg, err := b.Build()
	if err != nil {
		// Cannot happen: edges come from a valid graph.
		panic("graph: Reverse: " + err.Error())
	}
	return rg
}

// withSelfLoops returns g with the self-loop (v, v) of weight loops[v]
// spliced into each listed vertex's sorted row: the graphs a snapshot file
// can carry but a Builder, which drops self-loops, cannot build.
func withSelfLoops(g *Graph, loops map[VertexID]float32) *Graph {
	n := g.NumVertices()
	out := &Graph{offsets: make([]int64, n+1)}
	if g.HasWeights() {
		out.weights = []float32{}
	}
	emit := func(dst VertexID, w float32) {
		out.edges = append(out.edges, dst)
		if out.weights != nil {
			out.weights = append(out.weights, w)
		}
	}
	for v := VertexID(0); int(v) < n; v++ {
		loopW, pending := loops[v]
		ws := g.OutWeights(v)
		for i, dst := range g.OutNeighbors(v) {
			if pending && dst > v {
				emit(v, loopW)
				pending = false
			}
			w := float32(1)
			if ws != nil {
				w = ws[i]
			}
			emit(dst, w)
		}
		if pending {
			emit(v, loopW)
		}
		out.offsets[v+1] = int64(len(out.edges))
	}
	return out
}

// randomClosureInput builds a random directed graph whose input edge list
// carries duplicates and self-loops; keepSelf retains the self-loops in
// the built graph (each with the first weight it was added with, as
// duplicates are), and weighted edges get direction-dependent weights, so
// a mutual pair disagrees on its weight.
func randomClosureInput(rng *rand.Rand, weighted, keepSelf bool) *Graph {
	n := 1 + rng.IntN(60)
	b := NewBuilder(n)
	loops := map[VertexID]float32{}
	add := func(src, dst VertexID) {
		w := float32(1)
		if weighted {
			w = float32(1+rng.IntN(97)) / 7
			b.AddWeightedEdge(src, dst, w)
		} else {
			b.AddEdge(src, dst)
		}
		if _, seen := loops[src]; src == dst && !seen {
			loops[src] = w
		}
	}
	m := rng.IntN(6 * n)
	for i := 0; i < m; i++ {
		src, dst := VertexID(rng.IntN(n)), VertexID(rng.IntN(n))
		if rng.IntN(4) == 0 {
			dst = src
		}
		add(src, dst)
		if rng.IntN(3) == 0 { // the reverse edge too, with its own weight
			add(dst, src)
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	if keepSelf {
		g = withSelfLoops(g, loops)
	}
	return g
}

// TestUndirectedMatchesBuilderReference drives the direct-CSR closure
// against the Builder-based reference on random directed, weighted,
// self-loop and duplicate-edge graphs, and on the closure of a closure.
func TestUndirectedMatchesBuilderReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 41))
	for trial := 0; trial < 400; trial++ {
		weighted, keepSelf := trial%2 == 1, trial%4 >= 2
		g := randomClosureInput(rng, weighted, keepSelf)
		label := fmt.Sprintf("trial %d (weighted=%v, self-loops=%v, %v)", trial, weighted, keepSelf, g)
		u := g.Undirected()
		requireSameGraph(t, u, referenceUndirected(g), label)
		requireSameGraph(t, u.Undirected(), referenceUndirected(u), label+" twice")
	}
	for _, g := range []*Graph{{}, MustFromEdges(3, nil), MustFromEdges(1, [][2]VertexID{{0, 0}})} {
		requireSameGraph(t, g.Undirected(), referenceUndirected(g), g.String())
	}
}

// TestReverseMatchesBuilderReference drives the counting-scatter
// transpose against the Builder-based reference on the same inputs:
// random directed, weighted, self-loop and duplicate-edge graphs, the
// transpose of a transpose, and the empty ones.
func TestReverseMatchesBuilderReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 51))
	for trial := 0; trial < 400; trial++ {
		weighted, keepSelf := trial%2 == 1, trial%4 >= 2
		g := randomClosureInput(rng, weighted, keepSelf)
		label := fmt.Sprintf("trial %d (weighted=%v, self-loops=%v, %v)", trial, weighted, keepSelf, g)
		r := g.Reverse()
		requireSameGraph(t, r, referenceReverse(g), label)
		requireSameGraph(t, r.Reverse(), referenceReverse(r), label+" twice")
	}
	for _, g := range []*Graph{{}, MustFromEdges(3, nil), MustFromEdges(1, [][2]VertexID{{0, 0}})} {
		requireSameGraph(t, g.Reverse(), referenceReverse(g), g.String())
	}
}

// TestUndirectedBuiltOnce pins the sharing connected components and
// semi-clustering rely on: every caller, concurrent ones included, gets
// the one closure the graph remembers.
func TestUndirectedBuiltOnce(t *testing.T) {
	g := randomClosureInput(rand.New(rand.NewPCG(3, 5)), true, false)
	got := make([]*Graph, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = g.Undirected()
		}()
	}
	wg.Wait()
	for i, u := range got {
		if u != got[0] {
			t.Fatalf("caller %d got its own closure", i)
		}
	}
	requireSameGraph(t, got[0], referenceUndirected(g), "shared closure")
}
