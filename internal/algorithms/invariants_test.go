package algorithms

import (
	"math"
	"testing"

	"predict/internal/gen"
	"predict/internal/graph"
)

// TestPageRankMassConservation: with dangling-mass redistribution the
// total rank must stay ~1 even on graphs full of sinks.
func TestPageRankMassConservation(t *testing.T) {
	cases := map[string]*graph.Graph{
		"path": gen.Path(50),
		"star": gen.Star(50, true),
		"ba":   gen.BarabasiAlbert(500, 3, 0.2, 5),
	}
	for name, g := range cases {
		pr := NewPageRank()
		pr.Tau = 1e-10
		_, ranks, err := pr.RunRanks(g, quietCfg(2))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var sum float64
		for _, r := range ranks {
			sum += r
		}
		if math.Abs(sum-1) > 0.02 {
			t.Errorf("%s: ranks sum to %v, want ~1 (dangling redistribution)", name, sum)
		}
	}
}

// TestNeighborhoodEstimationDeterministic: FM sketches are seeded from
// vertex IDs, so two runs must agree bit for bit.
func TestNeighborhoodEstimationDeterministic(t *testing.T) {
	g := gen.BarabasiAlbert(800, 4, 0.4, 9)
	nh := NewNeighborhoodEstimation()
	_, e1, err := nh.RunEstimates(g, quietCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	_, e2, err := nh.RunEstimates(g, quietCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	for v := range e1 {
		if e1[v] != e2[v] {
			t.Fatalf("vertex %d: %v vs %v across identical runs", v, e1[v], e2[v])
		}
	}
}

// TestSemiClusteringValueBytesGrowWithClusters: the memory sizer must see
// larger state for fuller cluster lists.
func TestSemiClusteringValueBytes(t *testing.T) {
	sp := &scProgram{p: NewSemiClustering()}
	empty := scValue{}
	one := scValue{best: []scCluster{{members: []graph.VertexID{1, 2, 3}}}}
	if sp.ValueBytes(one) <= sp.ValueBytes(empty) {
		t.Errorf("ValueBytes(one cluster) = %d <= ValueBytes(empty) = %d",
			sp.ValueBytes(one), sp.ValueBytes(empty))
	}
}

// TestConnectedComponentsOnDegenerateStructures exercises the paper's
// §3.5 limitation examples end to end.
func TestConnectedComponentsOnDegenerateStructures(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"path":  gen.Path(64),
		"cycle": gen.Cycle(64),
		"grid":  gen.Grid(8, 8),
	} {
		cc := NewConnectedComponents()
		_, labels, err := cc.RunLabels(g, quietCfg(2))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for v, l := range labels {
			if l != 0 {
				t.Fatalf("%s: vertex %d label %d, want single component 0", name, v, l)
			}
		}
	}
}

// TestTopKRespectsKAcrossGraphs property-checks the K bound.
func TestTopKRespectsK(t *testing.T) {
	for _, k := range []int{1, 3, 10} {
		g := gen.BarabasiAlbert(300, 4, 0.4, uint64(k))
		tk := NewTopKRanking()
		tk.K = k
		tk.PageRank.Tau = TauForTolerance(0.01, g.NumVertices())
		_, lists, err := tk.RunLists(g, quietCfg(2))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		for v, list := range lists {
			if len(list) > k {
				t.Fatalf("k=%d: vertex %d has %d entries", k, v, len(list))
			}
		}
	}
}
