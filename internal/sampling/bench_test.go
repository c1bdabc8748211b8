package sampling

import (
	"testing"

	"predict/internal/graph"
)

// brjBenchGraph builds a deterministic scale-free-ish graph: a ring for
// connectivity plus chords whose fan-in concentrates on low IDs, giving
// the hub structure BRJ's restart seeding exercises.
func brjBenchGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID((i+1)%n))
		b.AddEdge(graph.VertexID(i), graph.VertexID((i*i)%(i/4+1)))
		if i%3 == 0 {
			b.AddEdge(graph.VertexID(i), graph.VertexID((i*13+5)%n))
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// BenchmarkBRJSamplingWalk measures one Biased Random Jump sample draw —
// the walk plus the induced-subgraph construction every fit pipeline pays
// per training ratio.
func BenchmarkBRJSamplingWalk(b *testing.B) {
	g := brjBenchGraph(20000)
	opts := Options{Ratio: 0.10, Seed: 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sample(g, BiasedRandomJump, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBRJWalkOnly isolates the walk itself (seed selection + random
// walk with restarts) from subgraph induction.
func BenchmarkBRJWalkOnly(b *testing.B) {
	g := brjBenchGraph(20000)
	opts := Options{Ratio: 0.10, Seed: 7}
	seeds := topOutDegreeSeeds(g)
	n := g.NumVertices()
	target := int(float64(n) * opts.Ratio)
	ws := new(workspace)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := newRNG(opts.Seed)
		ws.begin(n, target)
		walkSample(g, target, rng, seeds, ws)
		if len(ws.visited) != target {
			b.Fatalf("walk returned %d vertices, want %d", len(ws.visited), target)
		}
	}
}
