package gen

import (
	"math"
	"testing"

	"predict/internal/graph"
)

func TestPowerLawDistRespectsBounds(t *testing.T) {
	rng := rngFor(1)
	dist := PowerLawDist{Alpha: 2.3, Min: 2, Max: 50}
	for i := 0; i < 10000; i++ {
		d := dist.Sample(rng)
		if d < 2 || d > 50 {
			t.Fatalf("degree %d out of [2,50]", d)
		}
	}
}

func TestLogNormalDistRespectsBounds(t *testing.T) {
	rng := rngFor(2)
	dist := LogNormalDist{Mu: 2, Sigma: 1, Min: 1, Max: 100}
	for i := 0; i < 10000; i++ {
		d := dist.Sample(rng)
		if d < 1 || d > 100 {
			t.Fatalf("degree %d out of [1,100]", d)
		}
	}
}

func TestUniformDist(t *testing.T) {
	rng := rngFor(3)
	dist := UniformDist{Min: 5, Max: 7}
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		d := dist.Sample(rng)
		if d < 5 || d > 7 {
			t.Fatalf("degree %d out of [5,7]", d)
		}
		seen[d] = true
	}
	if len(seen) != 3 {
		t.Errorf("saw %d distinct degrees, want 3", len(seen))
	}
}

func TestFromDegreeDistShape(t *testing.T) {
	g := FromDegreeDist(2000, PowerLawDist{Alpha: 2.5, Min: 3, Max: 200},
		ConfigModelOptions{TargetBias: 0.8}, 42)
	if g.NumVertices() != 2000 {
		t.Fatalf("NumVertices = %d, want 2000", g.NumVertices())
	}
	avg := g.AvgOutDegree()
	if avg < 3 || avg > 30 {
		t.Errorf("AvgOutDegree = %v, expected power-law mean in [3,30]", avg)
	}
	// Zipf-biased destinations must produce in-degree skew: the max
	// in-degree should far exceed the mean.
	// (The mean in-degree is the mean out-degree: both are edges/vertices.)
	inDegs := g.SortedInDegrees()
	if maxIn := inDegs[len(inDegs)-1]; float64(maxIn) < 5*avg {
		t.Errorf("in-degree max %d vs mean %.1f: expected heavy tail", maxIn, avg)
	}
}

func TestFromDegreeDistDeterministic(t *testing.T) {
	g1 := FromDegreeDist(500, PowerLawDist{Alpha: 2.2, Min: 2, Max: 50}, ConfigModelOptions{}, 7)
	g2 := FromDegreeDist(500, PowerLawDist{Alpha: 2.2, Min: 2, Max: 50}, ConfigModelOptions{}, 7)
	if g1.NumEdges() != g2.NumEdges() {
		t.Fatalf("same seed produced different graphs: %d vs %d edges", g1.NumEdges(), g2.NumEdges())
	}
	g3 := FromDegreeDist(500, PowerLawDist{Alpha: 2.2, Min: 2, Max: 50}, ConfigModelOptions{}, 8)
	if g1.NumEdges() == g3.NumEdges() {
		t.Log("different seeds gave same edge count (possible but unlikely)")
	}
}

func TestBarabasiAlbertShape(t *testing.T) {
	g := BarabasiAlbert(3000, 5, 0.3, 11)
	if g.NumVertices() != 3000 {
		t.Fatalf("NumVertices = %d, want 3000", g.NumVertices())
	}
	avg := g.AvgOutDegree()
	if avg < 4 || avg > 10 {
		t.Errorf("AvgOutDegree = %v, want ~5-7 for m=5, backProb=0.3", avg)
	}
	// Preferential attachment must create hubs.
	if g.MaxOutDegree() < 30 {
		t.Errorf("MaxOutDegree = %d, expected hubs >> m", g.MaxOutDegree())
	}
	// The graph should be (weakly) connected by construction.
	if frac := graph.LargestComponentFraction(g); frac < 0.99 {
		t.Errorf("LargestComponentFraction = %v, want ~1", frac)
	}
}

func TestBarabasiAlbertPowerLaw(t *testing.T) {
	g := BarabasiAlbert(20000, 8, 0.5, 13)
	alpha := graph.PowerLawAlpha(g.SortedInDegrees(), 8)
	// BA in-degree tail exponent is ~3 in theory; accept a broad band.
	if alpha < 1.8 || alpha > 4 {
		t.Errorf("in-degree power-law alpha = %v, want in [1.8, 4]", alpha)
	}
}

func TestErdosRenyi(t *testing.T) {
	g := ErdosRenyi(2000, 8, 5)
	if g.NumVertices() != 2000 {
		t.Fatalf("NumVertices = %d, want 2000", g.NumVertices())
	}
	if math.Abs(g.AvgOutDegree()-8) > 1 {
		t.Errorf("AvgOutDegree = %v, want ~8", g.AvgOutDegree())
	}
	// ER graphs have no heavy tail: max degree stays near the mean.
	if g.MaxOutDegree() > 40 {
		t.Errorf("MaxOutDegree = %d, unexpectedly heavy tail for ER", g.MaxOutDegree())
	}
}

func TestRMATShape(t *testing.T) {
	g := RMAT(4000, 10, 17)
	if g.NumVertices() != 4000 {
		t.Fatalf("NumVertices = %d, want 4000", g.NumVertices())
	}
	if g.AvgOutDegree() < 5 || g.AvgOutDegree() > 11 {
		t.Errorf("AvgOutDegree = %v, want near 10 (dedup shrinks it)", g.AvgOutDegree())
	}
	if float64(g.MaxOutDegree()) < 4*g.AvgOutDegree() {
		t.Errorf("RMAT max degree %d vs mean %.1f: expected skew", g.MaxOutDegree(), g.AvgOutDegree())
	}
}

func TestPath(t *testing.T) {
	g := Path(10)
	if g.NumEdges() != 9 {
		t.Errorf("Path(10) edges = %d, want 9", g.NumEdges())
	}
	if g.OutDegree(9) != 0 {
		t.Errorf("last vertex out-degree = %d, want 0", g.OutDegree(9))
	}
}

func TestCycle(t *testing.T) {
	g := Cycle(10)
	if g.NumEdges() != 10 {
		t.Errorf("Cycle(10) edges = %d, want 10", g.NumEdges())
	}
	if !g.HasEdge(9, 0) {
		t.Error("missing wrap-around edge")
	}
}

func TestStar(t *testing.T) {
	out := Star(10, true)
	if out.OutDegree(0) != 9 {
		t.Errorf("outward star center degree = %d, want 9", out.OutDegree(0))
	}
	in := Star(10, false)
	if d := in.Reverse().OutDegree(0); d != 9 {
		t.Errorf("inward star center in-degree = %d, want 9", d)
	}
}

func TestGrid(t *testing.T) {
	g := Grid(3, 4)
	if g.NumVertices() != 12 {
		t.Fatalf("NumVertices = %d, want 12", g.NumVertices())
	}
	// Interior horizontal + vertical edges, both directions:
	// horizontal: 3 rows * 3 = 9 pairs; vertical: 2*4 = 8 pairs; total 34.
	if g.NumEdges() != 34 {
		t.Errorf("NumEdges = %d, want 34", g.NumEdges())
	}
}

func TestWattsStrogatz(t *testing.T) {
	g := WattsStrogatz(1000, 4, 0.1, 23)
	if g.NumVertices() != 1000 {
		t.Fatalf("NumVertices = %d, want 1000", g.NumVertices())
	}
	if g.AvgOutDegree() < 3.5 || g.AvgOutDegree() > 4.001 {
		t.Errorf("AvgOutDegree = %v, want ~4", g.AvgOutDegree())
	}
}

func TestStandInsRegistry(t *testing.T) {
	ds := StandIns()
	if len(ds) != 4 {
		t.Fatalf("StandIns() returned %d datasets, want 4", len(ds))
	}
	wantPrefixes := []string{"LJ", "Wiki", "TW", "UK"}
	for i, d := range ds {
		if d.Prefix != wantPrefixes[i] {
			t.Errorf("dataset %d prefix = %q, want %q", i, d.Prefix, wantPrefixes[i])
		}
		if d.Generate == nil {
			t.Errorf("dataset %s has nil generator", d.Prefix)
		}
		if d.PaperVertices == 0 || d.PaperEdges == 0 {
			t.Errorf("dataset %s missing paper statistics", d.Prefix)
		}
	}
}

func TestByPrefix(t *testing.T) {
	d, err := ByPrefix("TW")
	if err != nil {
		t.Fatalf("ByPrefix(TW): %v", err)
	}
	if d.Name != "Twitter-sim" {
		t.Errorf("Name = %q, want Twitter-sim", d.Name)
	}
	if _, err := ByPrefix("nope"); err == nil {
		t.Error("ByPrefix(nope) succeeded, want error")
	}
}

func TestStandInsTinyScale(t *testing.T) {
	// Small scale must still produce valid connected-ish graphs quickly.
	for _, d := range StandIns() {
		g := d.Generate(0.02, 99)
		if g.NumVertices() < 100 {
			t.Errorf("%s at scale 0.02: only %d vertices", d.Prefix, g.NumVertices())
		}
		if g.NumEdges() == 0 {
			t.Errorf("%s at scale 0.02: no edges", d.Prefix)
		}
	}
}

func TestLJStandInIsNotPowerLawButWikiIs(t *testing.T) {
	lj, err := ByPrefix("LJ")
	if err != nil {
		t.Fatal(err)
	}
	wiki, err := ByPrefix("Wiki")
	if err != nil {
		t.Fatal(err)
	}
	if lj.ScaleFree {
		t.Error("LJ stand-in must be flagged non-scale-free")
	}
	if !wiki.ScaleFree {
		t.Error("Wiki stand-in must be flagged scale-free")
	}
}
