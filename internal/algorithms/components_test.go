package algorithms

import (
	"testing"

	"predict/internal/gen"
	"predict/internal/graph"
)

func TestConnectedComponentsLabels(t *testing.T) {
	// Components {0,1,2}, {3,4}, {5}.
	g := graph.MustFromEdges(6, [][2]graph.VertexID{{0, 1}, {1, 2}, {3, 4}})
	cc := NewConnectedComponents()
	_, labels, err := cc.RunLabels(g, quietCfg(2))
	if err != nil {
		t.Fatalf("RunLabels: %v", err)
	}
	want := []graph.VertexID{0, 0, 0, 3, 3, 5}
	for v, l := range labels {
		if l != want[v] {
			t.Errorf("label[%d] = %d, want %d", v, l, want[v])
		}
	}
}

func TestConnectedComponentsWeaklyConnected(t *testing.T) {
	// Directed chain 0->1->2: weakly connected even though 2 cannot reach 0.
	g := gen.Path(3)
	cc := NewConnectedComponents()
	_, labels, err := cc.RunLabels(g, quietCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	for v, l := range labels {
		if l != 0 {
			t.Errorf("label[%d] = %d, want 0 (weak connectivity)", v, l)
		}
	}
}

func TestConnectedComponentsAgreesWithUnionFind(t *testing.T) {
	g := gen.ErdosRenyi(800, 1.2, 55) // sparse: multiple components
	cc := NewConnectedComponents()
	_, labels, err := cc.RunLabels(g, quietCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	ufLabels, _ := graph.WeaklyConnectedComponents(g)
	// The labelings must induce the same partition.
	bspToUF := map[graph.VertexID]int32{}
	for v := range labels {
		if prev, ok := bspToUF[labels[v]]; ok {
			if prev != ufLabels[v] {
				t.Fatalf("vertex %d: BSP label %d maps to UF components %d and %d",
					v, labels[v], prev, ufLabels[v])
			}
		} else {
			bspToUF[labels[v]] = ufLabels[v]
		}
	}
}

func TestConnectedComponentsSparseComputation(t *testing.T) {
	// Active vertices must collapse after the first iterations — the
	// paper's sparse-computation pattern.
	g := gen.BarabasiAlbert(3000, 4, 0.5, 77)
	cc := NewConnectedComponents()
	ri, err := cc.Run(g, quietCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	if ri.Iterations < 3 {
		t.Skipf("converged in %d iterations", ri.Iterations)
	}
	first := ri.Profile.Supersteps[1].Total().ActiveVertices
	last := ri.Profile.Supersteps[ri.Iterations-1].Total().ActiveVertices
	if last*10 > first {
		t.Errorf("active vertices did not collapse: %d -> %d", first, last)
	}
}

func TestConnectedComponentsTransformedIdentity(t *testing.T) {
	cc := NewConnectedComponents()
	if tr := cc.Transformed(0.05).(ConnectedComponents); tr != cc {
		t.Error("Transformed must be identity for fixed-point convergence")
	}
}

func TestNeighborhoodEstimationCycle(t *testing.T) {
	// On a 32-cycle every vertex reaches all 32 vertices; the FM estimate
	// should land within a factor ~2.
	g := gen.Cycle(32)
	nh := NewNeighborhoodEstimation()
	nh.Tau = 0 // fixed point
	_, ests, err := nh.RunEstimates(g, quietCfg(2))
	if err != nil {
		t.Fatalf("RunEstimates: %v", err)
	}
	for v, e := range ests {
		if e < 8 || e > 128 {
			t.Errorf("vertex %d estimate %v, want within factor ~4 of 32", v, e)
		}
	}
}

func TestNeighborhoodEstimationIterationsTrackDiameter(t *testing.T) {
	// A path of length L takes ~L supersteps to flood; a BA graph floods
	// within its small effective diameter.
	path := gen.Path(40)
	nh := NewNeighborhoodEstimation()
	nh.Tau = 0
	riPath, err := nh.Run(path, quietCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	ba := gen.BarabasiAlbert(2000, 5, 0.5, 88)
	riBA, err := nh.Run(ba, quietCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	if riPath.Iterations < 30 {
		t.Errorf("path iterations = %d, want ~40", riPath.Iterations)
	}
	if riBA.Iterations >= riPath.Iterations {
		t.Errorf("scale-free iterations %d should be far below path %d",
			riBA.Iterations, riPath.Iterations)
	}
}

func TestNeighborhoodEstimationMonotoneInReach(t *testing.T) {
	// Estimates for the head of a path (reaches everything) must exceed
	// estimates for the tail (reaches only itself).
	g := gen.Path(60)
	nh := NewNeighborhoodEstimation()
	nh.Tau = 0
	_, ests, err := nh.RunEstimates(g, quietCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	if ests[0] <= ests[59] {
		t.Errorf("head estimate %v <= tail estimate %v", ests[0], ests[59])
	}
}

func TestFMEstimateEmptyAndDense(t *testing.T) {
	var empty nhMsg
	small := fmEstimate(empty)
	var dense nhMsg
	for i := range dense {
		dense[i] = (1 << 20) - 1 // 20 trailing ones
	}
	big := fmEstimate(dense)
	if small >= big {
		t.Errorf("fmEstimate: empty %v >= dense %v", small, big)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"PR", "SC", "TOPK", "CC", "NH",
		"PageRank", "SemiClustering", "TopKRanking", "ConnectedComponents", "NeighborhoodEstimation"} {
		alg, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%s): %v", name, err)
			continue
		}
		if alg.Name() == "" {
			t.Errorf("ByName(%s) returned anonymous algorithm", name)
		}
		if canonical, ok := CanonicalName(name); !ok || canonical != alg.Name() {
			t.Errorf("CanonicalName(%s) = %q, %v; ByName's algorithm is named %q", name, canonical, ok, alg.Name())
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName(nope) succeeded")
	}
	if _, ok := CanonicalName("nope"); ok {
		t.Error("CanonicalName(nope) succeeded")
	}
}

// TestAllReturnsFiveAlgorithms holds the paper's five algorithms (Table 3
// order) to five distinct names — the service keys its models on Name().
func TestAllReturnsFiveAlgorithms(t *testing.T) {
	seen := map[string]bool{}
	for _, tag := range []string{"PR", "SC", "CC", "TOPK", "NH"} {
		a, err := ByName(tag)
		if err != nil {
			t.Fatal(err)
		}
		if seen[a.Name()] {
			t.Errorf("duplicate algorithm %s", a.Name())
		}
		seen[a.Name()] = true
	}
}
