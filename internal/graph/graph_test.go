package graph

import (
	"slices"
	"testing"
)

// figure2G builds the 8-vertex graph G from Figure 2 of the paper: a
// two-level tree-like DAG where 1,2 -> 3,4 ... we use the published
// structure: edges chosen so that diameter is 2 and vertex 5 has two
// in-edges.
func figure2G() *Graph {
	return MustFromEdges(9, [][2]VertexID{
		{1, 3}, {2, 3}, {3, 5}, {4, 5}, {6, 7}, {7, 8}, {6, 5},
	})
}

func TestEmptyGraph(t *testing.T) {
	var g Graph
	if got := g.NumVertices(); got != 0 {
		t.Errorf("NumVertices() = %d, want 0", got)
	}
	if got := g.NumEdges(); got != 0 {
		t.Errorf("NumEdges() = %d, want 0", got)
	}
	if got := g.AvgOutDegree(); got != 0 {
		t.Errorf("AvgOutDegree() = %v, want 0", got)
	}
}

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	b.AddEdge(3, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.NumVertices() != 4 {
		t.Errorf("NumVertices = %d, want 4", g.NumVertices())
	}
	if g.NumEdges() != 4 {
		t.Errorf("NumEdges = %d, want 4", g.NumEdges())
	}
	if d := g.OutDegree(0); d != 2 {
		t.Errorf("OutDegree(0) = %d, want 2", d)
	}
	adj := g.OutNeighbors(0)
	if len(adj) != 2 || adj[0] != 1 || adj[1] != 2 {
		t.Errorf("OutNeighbors(0) = %v, want [1 2]", adj)
	}
}

func TestBuilderSortsAdjacency(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 3)
	b.AddEdge(0, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	adj := g.OutNeighbors(0)
	for i := 1; i < len(adj); i++ {
		if adj[i-1] >= adj[i] {
			t.Fatalf("adjacency not sorted: %v", adj)
		}
	}
}

func TestBuilderDeduplicatesParallelEdges(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2 after dedup", g.NumEdges())
	}
}

func TestBuilderDropsSelfLoopsByDefault(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 0)
	b.AddEdge(0, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1 (self-loop dropped)", g.NumEdges())
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 5)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted out-of-range destination")
	}
	b2 := NewBuilder(2)
	b2.AddEdge(-1, 0)
	if _, err := b2.Build(); err == nil {
		t.Fatal("Build accepted negative source")
	}
}

func TestBuilderWeighted(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1) // unweighted first; should backfill weight 1
	b.AddWeightedEdge(0, 2, 2.5)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if !g.HasWeights() {
		t.Fatal("HasWeights() = false, want true")
	}
	ws := g.OutWeights(0)
	if len(ws) != 2 || ws[0] != 1 || ws[1] != 2.5 {
		t.Errorf("OutWeights(0) = %v, want [1 2.5]", ws)
	}
}

func TestInEdges(t *testing.T) {
	g := MustFromEdges(4, [][2]VertexID{{0, 2}, {1, 2}, {3, 2}, {2, 0}})
	if deg := g.inDegrees(); deg[2] != 3 || deg[0] != 1 {
		t.Errorf("inDegrees = %v, want 3 at vertex 2 and 1 at vertex 0", deg)
	}
	in := g.Reverse().OutNeighbors(2)
	if len(in) != 3 || in[0] != 0 || in[1] != 1 || in[2] != 3 {
		t.Fatalf("in-neighbours of 2 = %v, want [0 1 3]", in)
	}
}

func TestHasEdge(t *testing.T) {
	g := MustFromEdges(5, [][2]VertexID{{0, 1}, {0, 3}, {2, 4}})
	cases := []struct {
		src, dst VertexID
		want     bool
	}{
		{0, 1, true}, {0, 3, true}, {2, 4, true},
		{0, 2, false}, {1, 0, false}, {4, 2, false}, {0, 4, false},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.src, c.dst); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.src, c.dst, got, c.want)
		}
	}
}

func TestReverse(t *testing.T) {
	g := MustFromEdges(3, [][2]VertexID{{0, 1}, {0, 2}, {1, 2}})
	r := g.Reverse()
	if r.NumEdges() != g.NumEdges() {
		t.Fatalf("Reverse changed edge count: %d vs %d", r.NumEdges(), g.NumEdges())
	}
	if !r.HasEdge(1, 0) || !r.HasEdge(2, 0) || !r.HasEdge(2, 1) {
		t.Error("Reverse missing transposed edges")
	}
	if r.HasEdge(0, 1) {
		t.Error("Reverse kept original edge direction")
	}
}

func TestUndirected(t *testing.T) {
	g := MustFromEdges(3, [][2]VertexID{{0, 1}, {1, 2}})
	u := g.Undirected()
	if u.NumEdges() != 4 {
		t.Fatalf("Undirected NumEdges = %d, want 4", u.NumEdges())
	}
	for _, e := range [][2]VertexID{{0, 1}, {1, 0}, {1, 2}, {2, 1}} {
		if !u.HasEdge(e[0], e[1]) {
			t.Errorf("Undirected missing edge %v", e)
		}
	}
	if !u.HasWeights() {
		t.Error("Undirected should carry weight 1 per edge")
	}
}

func TestUndirectedDeduplicatesMutualEdges(t *testing.T) {
	g := MustFromEdges(2, [][2]VertexID{{0, 1}, {1, 0}})
	u := g.Undirected()
	if u.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", u.NumEdges())
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := figure2G()
	sub, m, err := InducedSubgraph(g, []VertexID{1, 3, 5, 6, 7})
	if err != nil {
		t.Fatalf("InducedSubgraph: %v", err)
	}
	if sub.NumVertices() != 5 {
		t.Fatalf("NumVertices = %d, want 5", sub.NumVertices())
	}
	// Edges kept: 1->3, 3->5, 6->7, 6->5. Dropped: 2->3, 4->5, 7->8.
	if sub.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", sub.NumEdges())
	}
	// Sample vertices are numbered in the order given.
	if want := []VertexID{1, 3, 5, 6, 7}; !slices.Equal(m.ToOriginal, want) {
		t.Fatalf("ToOriginal = %v, want %v", m.ToOriginal, want)
	}
	for _, e := range [][2]VertexID{{1, 3}, {3, 5}, {6, 7}, {6, 5}} {
		s, d := VertexID(slices.Index(m.ToOriginal, e[0])), VertexID(slices.Index(m.ToOriginal, e[1]))
		if !sub.HasEdge(s, d) {
			t.Errorf("edge %d->%d not preserved under relabeling", e[0], e[1])
		}
	}
	if slices.Contains(m.ToOriginal, 2) {
		t.Error("vertex 2 should not be in sample")
	}
}

func TestInducedSubgraphRejectsDuplicates(t *testing.T) {
	g := figure2G()
	if _, _, err := InducedSubgraph(g, []VertexID{1, 1}); err == nil {
		t.Fatal("expected error for duplicate vertices")
	}
}

func TestInducedSubgraphRejectsOutOfRange(t *testing.T) {
	g := figure2G()
	if _, _, err := InducedSubgraph(g, []VertexID{1, 100}); err == nil {
		t.Fatal("expected error for out-of-range vertex")
	}
}

func TestInducedSubgraphKeepsWeights(t *testing.T) {
	b := NewBuilder(3)
	b.AddWeightedEdge(0, 1, 7)
	b.AddWeightedEdge(1, 2, 9)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sub, _, err := InducedSubgraph(g, []VertexID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !sub.HasWeights() {
		t.Fatal("subgraph lost weights")
	}
	if ws := sub.OutWeights(0); len(ws) != 1 || ws[0] != 7 {
		t.Errorf("OutWeights(0) = %v, want [7]", ws)
	}
}
