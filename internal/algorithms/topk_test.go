package algorithms

import (
	"math"
	"strings"
	"testing"

	"predict/internal/gen"
	"predict/internal/graph"
)

func TestTopKOnCycleEveryoneSeesGlobalTop(t *testing.T) {
	// On a cycle all vertices reach all others, and ranks are uniform, so
	// each vertex's top-k must be the k smallest IDs (rank tie-break).
	g := gen.Cycle(20)
	tk := NewTopKRanking()
	tk.K = 3
	tk.Tau = 0 // run to fixed point
	tk.PageRank.Tau = 1e-12
	_, lists, err := tk.RunLists(g, quietCfg(2))
	if err != nil {
		t.Fatalf("RunLists: %v", err)
	}
	for v, list := range lists {
		if len(list) != 3 {
			t.Fatalf("vertex %d list size %d, want 3", v, len(list))
		}
		for i, want := range []graph.VertexID{0, 1, 2} {
			if list[i].ID != want {
				t.Errorf("vertex %d list[%d].ID = %d, want %d", v, i, list[i].ID, want)
			}
		}
	}
}

func TestTopKListSortedAndDeduped(t *testing.T) {
	g := gen.BarabasiAlbert(300, 4, 0.5, 31)
	tk := NewTopKRanking()
	tk.K = 5
	tk.PageRank.Tau = TauForTolerance(0.001, g.NumVertices())
	_, lists, err := tk.RunLists(g, quietCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	for v, list := range lists {
		seen := map[graph.VertexID]bool{}
		for i, e := range list {
			if seen[e.ID] {
				t.Fatalf("vertex %d: duplicate entry %d", v, e.ID)
			}
			seen[e.ID] = true
			if i > 0 && list[i-1].Rank < e.Rank {
				t.Fatalf("vertex %d: list not sorted desc at %d", v, i)
			}
		}
		if len(list) > 5 {
			t.Fatalf("vertex %d: list size %d > K", v, len(list))
		}
	}
}

func TestTopKMessageCountsDecay(t *testing.T) {
	// Category ii.b: message counts decay as vertices stop updating.
	g := gen.BarabasiAlbert(2000, 5, 0.4, 37)
	tk := NewTopKRanking()
	tk.PageRank.Tau = TauForTolerance(0.01, g.NumVertices())
	ri, err := tk.Run(g, quietCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	if ri.Iterations < 4 {
		t.Skipf("converged too fast (%d iterations)", ri.Iterations)
	}
	first := ri.Profile.Supersteps[1].Total().Messages()
	last := ri.Profile.Supersteps[ri.Iterations-1].Total().Messages()
	if last >= first {
		t.Errorf("messages did not decay: superstep 1 %d vs last %d", first, last)
	}
}

func TestTopKTransformed(t *testing.T) {
	tk := NewTopKRanking()
	tk.Tau = 0.001
	tk.PageRank.Tau = 1e-6
	tr := tk.Transformed(0.1).(TopKRanking)
	if tr.Tau != 0.001 {
		t.Errorf("top-k Tau changed to %v; ratio thresholds are identity-transformed", tr.Tau)
	}
	if diff := tr.PageRank.Tau - 1e-5; diff > 1e-18 || diff < -1e-18 {
		t.Errorf("inner PageRank Tau = %v, want scaled 1e-5", tr.PageRank.Tau)
	}
	if tr.K != tk.K {
		t.Error("K must be preserved (Conf = {topK} identity)")
	}
}

func TestTopKHelper(t *testing.T) {
	in := []RankEntry{
		{ID: 1, Rank: 0.5},
		{ID: 2, Rank: 0.9},
		{ID: 1, Rank: 0.5}, // duplicate
		{ID: 3, Rank: 0.7},
	}
	out := topK(in, 2)
	if len(out) != 2 || out[0].ID != 2 || out[1].ID != 3 {
		t.Errorf("topK = %v, want [{2 0.9} {3 0.7}]", out)
	}
}

func TestRankListsEqual(t *testing.T) {
	a := []RankEntry{{ID: 1, Rank: 0.5}}
	b := []RankEntry{{ID: 1, Rank: 0.5}}
	c := []RankEntry{{ID: 2, Rank: 0.5}}
	if !rankListsEqual(a, b) {
		t.Error("equal lists reported unequal")
	}
	if rankListsEqual(a, c) {
		t.Error("different lists reported equal")
	}
	if rankListsEqual(a, nil) {
		t.Error("different lengths reported equal")
	}
}

func TestTopKRunOnRanksUsesProvidedRanks(t *testing.T) {
	g := gen.Cycle(10)
	ranks := make([]float64, 10)
	ranks[7] = 1.0 // vertex 7 dominates
	tk := NewTopKRanking()
	tk.K = 1
	tk.Tau = 0
	_, lists, err := tk.RunOnRanks(g, ranks, quietCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	for v, list := range lists {
		if list[0].ID != 7 {
			t.Fatalf("vertex %d top entry = %d, want 7", v, list[0].ID)
		}
	}
}

// TestTopKRunOnRanksRejectsBadRanks: ranks of the wrong length used to
// panic in Init (on a worker goroutine, killing the process, with more
// than one worker), and a NaN rank, which rankBefore cannot order, ran to
// the superstep cap. Both are errors naming the fault, before the engine
// starts.
func TestTopKRunOnRanksRejectsBadRanks(t *testing.T) {
	g := gen.Cycle(10)
	tk := NewTopKRanking()
	for _, c := range []struct {
		name  string
		ranks []float64
		want  string
	}{
		{"short", make([]float64, 4), "4 ranks for 10 vertices"},
		{"long", make([]float64, 11), "11 ranks for 10 vertices"},
		{"nan", []float64{0, 0.1, 0.2, math.NaN(), 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}, "vertex 3 is NaN"},
	} {
		ri, lists, err := tk.RunOnRanks(g, c.ranks, quietCfg(2))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.want)
		}
		if ri != nil || lists != nil {
			t.Errorf("%s: the engine ran", c.name)
		}
	}
}
