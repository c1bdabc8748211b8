package sampling

import (
	"testing"

	"predict/internal/gen"
	"predict/internal/graph"
)

func testGraph() *graph.Graph {
	return gen.BarabasiAlbert(5000, 6, 0.4, 101)
}

func TestSampleTargetSize(t *testing.T) {
	g := testGraph()
	for _, m := range []Method{RandomJump, BiasedRandomJump, MetropolisHastings, UniformVertex} {
		r, err := Sample(g, m, Options{Ratio: 0.1, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		want := 500
		if len(r.Vertices) != want {
			t.Errorf("%s: sampled %d vertices, want %d", m, len(r.Vertices), want)
		}
		if r.Graph.NumVertices() != want {
			t.Errorf("%s: induced graph has %d vertices, want %d", m, r.Graph.NumVertices(), want)
		}
		if r.VertexRatio < 0.099 || r.VertexRatio > 0.101 {
			t.Errorf("%s: VertexRatio = %v, want ~0.1", m, r.VertexRatio)
		}
		if r.EdgeRatio <= 0 || r.EdgeRatio >= 1 {
			t.Errorf("%s: EdgeRatio = %v, want in (0,1)", m, r.EdgeRatio)
		}
	}
}

func TestSampleNoDuplicates(t *testing.T) {
	g := testGraph()
	for _, m := range []Method{RandomJump, BiasedRandomJump, MetropolisHastings} {
		r, err := Sample(g, m, Options{Ratio: 0.2, Seed: 2})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		seen := make(map[graph.VertexID]bool, len(r.Vertices))
		for _, v := range r.Vertices {
			if seen[v] {
				t.Fatalf("%s: duplicate vertex %d", m, v)
			}
			seen[v] = true
		}
	}
}

func TestSampleDeterministic(t *testing.T) {
	g := testGraph()
	r1, err := Sample(g, BiasedRandomJump, Options{Ratio: 0.1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Sample(g, BiasedRandomJump, Options{Ratio: 0.1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Vertices) != len(r2.Vertices) {
		t.Fatal("same seed, different sample sizes")
	}
	for i := range r1.Vertices {
		if r1.Vertices[i] != r2.Vertices[i] {
			t.Fatalf("same seed, different vertex at %d: %d vs %d", i, r1.Vertices[i], r2.Vertices[i])
		}
	}
}

func TestSampleErrors(t *testing.T) {
	g := testGraph()
	if _, err := Sample(g, RandomJump, Options{Ratio: 0}); err == nil {
		t.Error("ratio 0 accepted")
	}
	if _, err := Sample(g, RandomJump, Options{Ratio: 1.5}); err == nil {
		t.Error("ratio > 1 accepted")
	}
	if _, err := Sample(g, Method("bogus"), Options{Ratio: 0.1}); err == nil {
		t.Error("unknown method accepted")
	}
	var empty graph.Graph
	if _, err := Sample(&empty, RandomJump, Options{Ratio: 0.1}); err == nil {
		t.Error("empty graph accepted")
	}
}

func TestSampleFullRatio(t *testing.T) {
	g := gen.Cycle(100)
	r, err := Sample(g, RandomJump, Options{Ratio: 1.0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Vertices) != 100 {
		t.Errorf("sampled %d, want all 100", len(r.Vertices))
	}
	if r.EdgeRatio != 1.0 {
		t.Errorf("EdgeRatio = %v, want 1 for full sample", r.EdgeRatio)
	}
}

func TestBRJPrefersHubs(t *testing.T) {
	// On a scale-free graph at a small ratio, BRJ samples should include
	// the very top out-degree hubs (its restart seeds).
	g := testGraph()
	top := g.VerticesByOutDegree()[:int(float64(g.NumVertices())*0.002+0.5)]
	r, err := Sample(g, BiasedRandomJump, Options{Ratio: 0.05, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	inSample := make(map[graph.VertexID]bool)
	for _, v := range r.Vertices {
		inSample[v] = true
	}
	hubHits := 0
	for _, h := range top {
		if inSample[h] {
			hubHits++
		}
	}
	if float64(hubHits) < 0.5*float64(len(top)) {
		t.Errorf("BRJ hit only %d/%d top hubs", hubHits, len(top))
	}
}

func TestBRJConnectivityBeatsUniform(t *testing.T) {
	g := testGraph()
	brj, err := Sample(g, BiasedRandomJump, Options{Ratio: 0.1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	uni, err := Sample(g, UniformVertex, Options{Ratio: 0.1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	fb := graph.LargestComponentFraction(brj.Graph)
	fu := graph.LargestComponentFraction(uni.Graph)
	if fb <= fu {
		t.Errorf("BRJ connectivity %v <= uniform %v; walk-based sampling should preserve connectivity better", fb, fu)
	}
}

func TestWalkSampleHandlesSinkVertices(t *testing.T) {
	// A star pointing inward: every walk hits the sink center immediately;
	// restarts must keep the sampler making progress.
	g := gen.Star(200, false)
	r, err := Sample(g, RandomJump, Options{Ratio: 0.5, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Vertices) != 100 {
		t.Errorf("sampled %d, want 100", len(r.Vertices))
	}
}

func TestMHRWHandlesPath(t *testing.T) {
	g := gen.Path(500)
	r, err := Sample(g, MetropolisHastings, Options{Ratio: 0.2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Vertices) != 100 {
		t.Errorf("sampled %d, want 100", len(r.Vertices))
	}
}

func TestTopOutDegreeSeedsOrdering(t *testing.T) {
	// 200 vertices at seedFraction 0.01 is two seeds: the two highest
	// out-degrees, by degree and not by ID.
	g := graph.MustFromEdges(200, [][2]graph.VertexID{
		{7, 1}, {7, 2}, {7, 4}, // vertex 7: degree 3
		{3, 5}, {3, 6}, // vertex 3: degree 2
		{0, 9}, // vertex 0: degree 1
	})
	seeds := topOutDegreeSeeds(g)
	if len(seeds) != 2 || seeds[0] != 7 || seeds[1] != 3 {
		t.Errorf("seeds = %v, want [7 3]", seeds)
	}
	// A graph too small for the fraction still restarts from one hub.
	small := graph.MustFromEdges(4, [][2]graph.VertexID{{1, 0}, {1, 2}, {2, 3}})
	if seeds := topOutDegreeSeeds(small); len(seeds) != 1 || seeds[0] != 1 {
		t.Errorf("seeds on 4 vertices = %v, want [1]", seeds)
	}
}

func TestMeasureFidelity(t *testing.T) {
	g := testGraph()
	r, err := Sample(g, BiasedRandomJump, Options{Ratio: 0.2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	f := MeasureFidelity(g, r)
	if f.DStatOut < 0 || f.DStatOut > 1 {
		t.Errorf("DStatOut = %v, out of [0,1]", f.DStatOut)
	}
	if f.ConnectivityGraph < 0.99 {
		t.Errorf("BA graph should be connected, got %v", f.ConnectivityGraph)
	}
	// A 20% BRJ sample of a scale-free graph should stay mostly connected.
	if f.ConnectivitySample < 0.5 {
		t.Errorf("sample connectivity = %v, suspiciously low", f.ConnectivitySample)
	}
}

func TestSampleRatioSmallerThanOneVertex(t *testing.T) {
	g := gen.Cycle(10)
	r, err := Sample(g, RandomJump, Options{Ratio: 0.001, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Vertices) != 1 {
		t.Errorf("sampled %d vertices, want 1 (minimum)", len(r.Vertices))
	}
}
