package algorithms

import (
	"math"
	"testing"

	"predict/internal/bsp"
	"predict/internal/cluster"
	"predict/internal/gen"
	"predict/internal/graph"
)

func quietCfg(workers int) bsp.Config {
	o := cluster.DefaultOracle()
	o.NoiseStdDev = 0
	o.MemoryBudgetBytes = 0
	return bsp.Config{Workers: workers, Oracle: &o, Seed: 7}
}

func TestPageRankSumsToOneOnCycle(t *testing.T) {
	// On a cycle every vertex has in=out=1, so ranks stay uniform and sum
	// to 1 (no dangling mass loss).
	g := gen.Cycle(50)
	pr := NewPageRank()
	pr.Tau = 1e-12
	ri, ranks, err := pr.RunRanks(g, quietCfg(4))
	if err != nil {
		t.Fatalf("RunRanks: %v", err)
	}
	var sum float64
	for _, r := range ranks {
		sum += r
		if math.Abs(r-1.0/50) > 1e-9 {
			t.Fatalf("rank = %v, want uniform 0.02", r)
		}
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("ranks sum to %v, want 1", sum)
	}
	if ri.Iterations < 2 {
		t.Errorf("Iterations = %d, suspiciously few", ri.Iterations)
	}
}

func TestPageRankRanksHubHighest(t *testing.T) {
	// Inward star + ring: vertex 0 receives from everyone, so it must get
	// the top rank.
	b := graph.NewBuilder(20)
	for i := 1; i < 20; i++ {
		b.AddEdge(graph.VertexID(i), 0)
		b.AddEdge(graph.VertexID(i), graph.VertexID(i%19+1))
	}
	b.AddEdge(0, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pr := NewPageRank()
	pr.Tau = 1e-10
	_, ranks, err := pr.RunRanks(g, quietCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < 20; v++ {
		if ranks[v] >= ranks[0] {
			t.Fatalf("vertex %d rank %v >= hub rank %v", v, ranks[v], ranks[0])
		}
	}
}

func TestPageRankTighterTauMoreIterations(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 5, 0.4, 3)
	run := func(eps float64) int {
		pr := NewPageRank()
		pr.Tau = TauForTolerance(eps, g.NumVertices())
		ri, err := pr.Run(g, quietCfg(4))
		if err != nil {
			t.Fatalf("eps=%v: %v", eps, err)
		}
		return ri.Iterations
	}
	loose := run(0.01)
	tight := run(0.001)
	if tight <= loose {
		t.Errorf("iterations: tight tau %d <= loose tau %d", tight, loose)
	}
}

func TestPageRankTransformedScalesTau(t *testing.T) {
	pr := NewPageRank()
	pr.Tau = 0.001
	tr := pr.Transformed(0.1).(PageRank)
	if math.Abs(tr.Tau-0.01) > 1e-12 {
		t.Errorf("transformed Tau = %v, want 0.01 (tau/sr)", tr.Tau)
	}
	if tr.Damping != pr.Damping {
		t.Error("transform must keep damping (identity over Conf)")
	}
	// The original must be unchanged (value semantics).
	if pr.Tau != 0.001 {
		t.Error("Transformed mutated the receiver")
	}
}

func TestPageRankFigure2Invariants(t *testing.T) {
	// The paper's Figure 2 argument: a sample that halves the graph while
	// preserving structure doubles per-vertex ranks, so the average delta
	// is preserved iff the threshold is scaled by 1/sr. We verify on a
	// structure that samples exactly: a cycle (every half-cycle... a cycle
	// sample of contiguous arc is a path, not structure preserving).
	// Instead use two disjoint identical cycles: sampling one of them at
	// sr=0.5 preserves all structure exactly.
	b := graph.NewBuilder(40)
	for i := 0; i < 20; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID((i+1)%20))
		b.AddEdge(graph.VertexID(20+i), graph.VertexID(20+(i+1)%20))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sampleVerts := make([]graph.VertexID, 20)
	for i := range sampleVerts {
		sampleVerts[i] = graph.VertexID(i)
	}
	sample, _, err := graph.InducedSubgraph(g, sampleVerts)
	if err != nil {
		t.Fatal(err)
	}

	pr := NewPageRank()
	pr.Tau = 0.004 / float64(g.NumVertices())
	full, err := pr.Run(g, quietCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	// Transform for sr = 0.5: tau_S = tau_G / 0.5.
	prS := pr.Transformed(0.5).(PageRank)
	sampleRun, err := prS.Run(sample, quietCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	if full.Iterations != sampleRun.Iterations {
		t.Errorf("iterations: full %d vs transformed sample %d, want equal",
			full.Iterations, sampleRun.Iterations)
	}
	// Without the transform the invariant breaks on small thresholds only;
	// on this symmetric structure the untransformed sample converges at a
	// different iteration count for thresholds between the two delta
	// trajectories. Verify the delta-scaling premise directly instead:
	// per-iteration average delta on the sample is double the full graph's.
	fullDelta := full.Profile.Supersteps[1].Aggregates[aggDelta] / 40
	sampDelta := sampleRun.Profile.Supersteps[1].Aggregates[aggDelta] / 20
	if fullDelta == 0 {
		t.Skip("degenerate: cycle converges immediately")
	}
	ratio := sampDelta / fullDelta
	if math.Abs(ratio-2) > 0.01 {
		t.Errorf("avg delta ratio sample/full = %v, want 2 (= 1/sr)", ratio)
	}
}

func TestPageRankDanglingVerticesDoNotCrash(t *testing.T) {
	// A path has a dangling tail vertex (no out-edges).
	g := gen.Path(30)
	pr := NewPageRank()
	pr.Tau = 1e-8
	_, ranks, err := pr.RunRanks(g, quietCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	for v, r := range ranks {
		if r < 0 || math.IsNaN(r) {
			t.Fatalf("vertex %d has invalid rank %v", v, r)
		}
	}
}

func TestPageRankDeterministic(t *testing.T) {
	g := gen.BarabasiAlbert(500, 4, 0.3, 5)
	pr := NewPageRank()
	pr.Tau = TauForTolerance(0.001, g.NumVertices())
	_, r1, err := pr.RunRanks(g, quietCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	_, r2, err := pr.RunRanks(g, quietCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	for v := range r1 {
		if r1[v] != r2[v] {
			t.Fatalf("vertex %d: %v vs %v across identical runs", v, r1[v], r2[v])
		}
	}
}

func TestTauForTolerance(t *testing.T) {
	if got := TauForTolerance(0.01, 1000); got != 1e-5 {
		t.Errorf("TauForTolerance = %v, want 1e-5", got)
	}
}

func TestPageRankIterationsMatchesPaper(t *testing.T) {
	// The paper: for epsilon = 0.001, d = 0.85 the bound gives 42
	// iterations (log10(0.001)/log10(0.85) = 42.5).
	got := PageRankIterations(0.001, 0.85)
	if got != 43 && got != 42 {
		t.Errorf("PageRankIterations(0.001, 0.85) = %d, want ~42-43", got)
	}
	// Looser tolerance, fewer iterations.
	loose := PageRankIterations(0.1, 0.85)
	if loose >= got {
		t.Errorf("looser tolerance bound %d >= tighter %d", loose, got)
	}
}

func TestPageRankIterationsDegenerate(t *testing.T) {
	for _, c := range []struct{ eps, d float64 }{
		{0, 0.85}, {-1, 0.85}, {1, 0.85}, {0.001, 0}, {0.001, 1}, {0.001, 2},
	} {
		if got := PageRankIterations(c.eps, c.d); got != 0 {
			t.Errorf("PageRankIterations(%v, %v) = %d, want 0", c.eps, c.d, got)
		}
	}
}
