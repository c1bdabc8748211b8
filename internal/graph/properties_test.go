package graph

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func testRNG() *rand.Rand {
	return rand.New(rand.NewPCG(42, 1337))
}

func TestPowerLawAlphaRecoversExponent(t *testing.T) {
	// Draw degrees from a discrete power law with alpha = 2.5 via inverse
	// transform on the continuous approximation.
	// The discrete MLE with the -0.5 continuity correction is accurate for
	// dmin >~ 6 (Clauset et al.), so generate with a comfortably large dmin.
	rng := testRNG()
	const alpha = 2.5
	const dmin = 8
	degrees := make([]int, 30000)
	for i := range degrees {
		u := rng.Float64()
		d := (float64(dmin) - 0.5) * math.Pow(1-u, -1/(alpha-1))
		degrees[i] = int(d + 0.5)
	}
	got := PowerLawAlpha(degrees, dmin)
	if math.Abs(got-alpha) > 0.15 {
		t.Errorf("PowerLawAlpha = %v, want ~%v", got, alpha)
	}
}

func TestPowerLawAlphaDegenerate(t *testing.T) {
	if got := PowerLawAlpha([]int{1}, 2); got != 0 {
		t.Errorf("PowerLawAlpha on tiny input = %v, want 0", got)
	}
	if got := PowerLawAlpha(nil, 2); got != 0 {
		t.Errorf("PowerLawAlpha(nil) = %v, want 0", got)
	}
}

// kolmogorovSmirnov is KolmogorovSmirnovSorted over unsorted sequences.
func kolmogorovSmirnov(a, b []int) float64 {
	sa, sb := slices.Clone(a), slices.Clone(b)
	slices.Sort(sa)
	slices.Sort(sb)
	return KolmogorovSmirnovSorted(sa, sb)
}

func TestKolmogorovSmirnovIdentical(t *testing.T) {
	a := []int{1, 2, 3, 4, 5}
	if d := kolmogorovSmirnov(a, a); d != 0 {
		t.Errorf("KS(a,a) = %v, want 0", d)
	}
}

func TestKolmogorovSmirnovDisjoint(t *testing.T) {
	a := []int{1, 1, 1}
	b := []int{100, 100, 100}
	if d := kolmogorovSmirnov(a, b); d != 1 {
		t.Errorf("KS(disjoint) = %v, want 1", d)
	}
}

func TestKolmogorovSmirnovEmpty(t *testing.T) {
	if d := kolmogorovSmirnov(nil, []int{1}); d != 1 {
		t.Errorf("KS(nil, x) = %v, want 1", d)
	}
}

func TestKolmogorovSmirnovSymmetric(t *testing.T) {
	f := func(a, b []uint8) bool {
		if len(a) == 0 || len(b) == 0 {
			return true
		}
		da := make([]int, len(a))
		for i, x := range a {
			da[i] = int(x)
		}
		db := make([]int, len(b))
		for i, x := range b {
			db[i] = int(x)
		}
		d1 := kolmogorovSmirnov(da, db)
		d2 := kolmogorovSmirnov(db, da)
		return math.Abs(d1-d2) < 1e-12 && d1 >= 0 && d1 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEffectiveDiameterPath(t *testing.T) {
	// Directed path 0->1->2->...->9: from source i there are 10-i reachable
	// vertices. Exact diameter over all sources covers distances up to 9;
	// the 90th percentile of pair distances is smaller.
	const n = 10
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(VertexID(i), VertexID(i+1))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	d := EffectiveDiameter(g, 1.0, n, testRNG())
	if d != n-1 {
		t.Errorf("EffectiveDiameter(q=1) = %d, want %d", d, n-1)
	}
	d90 := EffectiveDiameter(g, 0.9, n, testRNG())
	if d90 >= d || d90 < 1 {
		t.Errorf("EffectiveDiameter(q=0.9) = %d, want in [1, %d)", d90, d)
	}
}

func TestEffectiveDiameterStar(t *testing.T) {
	// Star: center 0 -> all leaves. All reachable pairs are at distance 1.
	const n = 50
	b := NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, VertexID(i))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if d := EffectiveDiameter(g, 0.9, n, testRNG()); d != 1 {
		t.Errorf("star EffectiveDiameter = %d, want 1", d)
	}
}

func TestEffectiveDiameterEmpty(t *testing.T) {
	var g Graph
	if d := EffectiveDiameter(&g, 0.9, 10, testRNG()); d != 0 {
		t.Errorf("empty EffectiveDiameter = %d, want 0", d)
	}
}

func TestClusteringCoefficientTriangle(t *testing.T) {
	// Complete directed triangle: every vertex's two neighbors are linked.
	g := MustFromEdges(3, [][2]VertexID{
		{0, 1}, {0, 2}, {1, 0}, {1, 2}, {2, 0}, {2, 1},
	})
	if c := ClusteringCoefficient(g, 3, testRNG()); c != 1 {
		t.Errorf("triangle clustering = %v, want 1", c)
	}
}

func TestClusteringCoefficientStar(t *testing.T) {
	// Star has no triangles.
	b := NewBuilder(10)
	for i := 1; i < 10; i++ {
		b.AddEdge(0, VertexID(i))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if c := ClusteringCoefficient(g, 10, testRNG()); c != 0 {
		t.Errorf("star clustering = %v, want 0", c)
	}
}

func TestWeaklyConnectedComponents(t *testing.T) {
	// Two components: {0,1,2} and {3,4}; 5 isolated.
	g := MustFromEdges(6, [][2]VertexID{{0, 1}, {2, 1}, {3, 4}})
	labels, k := WeaklyConnectedComponents(g)
	if k != 3 {
		t.Fatalf("components = %d, want 3", k)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Error("vertices 0,1,2 should share a component")
	}
	if labels[3] != labels[4] {
		t.Error("vertices 3,4 should share a component")
	}
	if labels[5] == labels[0] || labels[5] == labels[3] {
		t.Error("vertex 5 should be isolated")
	}
}

func TestLargestComponentFraction(t *testing.T) {
	g := MustFromEdges(5, [][2]VertexID{{0, 1}, {1, 2}})
	got := LargestComponentFraction(g)
	if got != 0.6 {
		t.Errorf("LargestComponentFraction = %v, want 0.6", got)
	}
}

func TestInOutRatio(t *testing.T) {
	// 0->1, 1->0: each vertex has in=1, out=1, ratio 1.
	g := MustFromEdges(2, [][2]VertexID{{0, 1}, {1, 0}})
	if r := InOutRatioStats(g); r != 1 {
		t.Errorf("InOutRatioStats = %v, want 1", r)
	}
}

func TestMeasureBundle(t *testing.T) {
	g := figure2G()
	p := Measure(g, g.NumVertices(), g.NumVertices(), 7)
	if p.NumVertices != 9 {
		t.Errorf("NumVertices = %d, want 9", p.NumVertices)
	}
	if p.NumEdges != 7 {
		t.Errorf("NumEdges = %d, want 7", p.NumEdges)
	}
	if p.LargestWCC <= 0 || p.LargestWCC > 1 {
		t.Errorf("LargestWCC = %v, out of (0,1]", p.LargestWCC)
	}
}
