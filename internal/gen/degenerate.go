package gen

import (
	"predict/internal/graph"
)

// Path builds the directed path 0 -> 1 -> ... -> n-1, the degenerate "list"
// structure the paper's §3.5 calls out as not amenable to sampling-based
// prediction.
func Path(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID(i+1))
	}
	g, err := b.Build()
	if err != nil {
		panic("gen: Path: " + err.Error())
	}
	return g
}

// Cycle builds the directed cycle 0 -> 1 -> ... -> n-1 -> 0.
func Cycle(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID((i+1)%n))
	}
	g, err := b.Build()
	if err != nil {
		panic("gen: Cycle: " + err.Error())
	}
	return g
}

// Star builds a star with vertex 0 at the center. If outward is true the
// edges point 0 -> leaf, otherwise leaf -> 0.
func Star(n int, outward bool) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		if outward {
			b.AddEdge(0, graph.VertexID(i))
		} else {
			b.AddEdge(graph.VertexID(i), 0)
		}
	}
	g, err := b.Build()
	if err != nil {
		panic("gen: Star: " + err.Error())
	}
	return g
}

// Grid builds a rows x cols grid with edges pointing right and down (and
// their reverses), a high-diameter structure useful for convergence tests.
func Grid(rows, cols int) *graph.Graph {
	n := rows * cols
	b := graph.NewBuilder(n)
	id := func(r, c int) graph.VertexID { return graph.VertexID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
				b.AddEdge(id(r, c+1), id(r, c))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
				b.AddEdge(id(r+1, c), id(r, c))
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		panic("gen: Grid: " + err.Error())
	}
	return g
}

// WattsStrogatz builds a directed small-world graph: a ring lattice where
// each vertex points to its k nearest clockwise neighbors, with each edge
// rewired to a uniform random destination with probability beta.
func WattsStrogatz(n, k int, beta float64, seed uint64) *graph.Graph {
	rng := rngFor(seed)
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		for j := 1; j <= k; j++ {
			dst := (v + j) % n
			if rng.Float64() < beta {
				dst = rng.IntN(n)
				if dst == v {
					dst = (v + 1) % n
				}
			}
			b.AddEdge(graph.VertexID(v), graph.VertexID(dst))
		}
	}
	g, err := b.Build()
	if err != nil {
		panic("gen: WattsStrogatz: " + err.Error())
	}
	return g
}
