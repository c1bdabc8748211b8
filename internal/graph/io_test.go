package graph

import (
	"bytes"
	"strings"
	"testing"
)

// readText parses input with LoadEdgeList and with the sequential
// reference it replaced (ReadEdgeList, readedgelist_ref_test.go), requires
// the two to agree — the same graph, or the same error text — and returns
// the loader's result, so every format test below holds both.
func readText(t *testing.T, input string) (*Graph, error) {
	t.Helper()
	g, err := LoadEdgeList(strings.NewReader(input), LoadOptions{})
	ref, refErr := ReadEdgeList(strings.NewReader(input))
	switch {
	case (err == nil) != (refErr == nil), err != nil && err.Error() != refErr.Error():
		t.Fatalf("LoadEdgeList(%q) error %v, reference parser's %v", input, err, refErr)
	case err == nil && !graphsIdentical(g, ref):
		t.Fatalf("LoadEdgeList(%q) = %v, reference parser's %v", input, g, ref)
	}
	return g, err
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := MustFromEdges(5, [][2]VertexID{{0, 1}, {0, 4}, {2, 3}, {4, 0}})
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatalf("WriteEdgeList: %v", err)
	}
	g2, err := readText(t, buf.String())
	if err != nil {
		t.Fatalf("LoadEdgeList: %v", err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed shape: %v vs %v", g2, g)
	}
	for v := 0; v < g.NumVertices(); v++ {
		a, b := g.OutNeighbors(VertexID(v)), g2.OutNeighbors(VertexID(v))
		if len(a) != len(b) {
			t.Fatalf("vertex %d degree mismatch", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d adjacency mismatch: %v vs %v", v, a, b)
			}
		}
	}
}

func TestEdgeListRoundTripWeighted(t *testing.T) {
	b := NewBuilder(3)
	b.AddWeightedEdge(0, 1, 2.5)
	b.AddWeightedEdge(1, 2, 0.125)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := readText(t, buf.String())
	if err != nil {
		t.Fatal(err)
	}
	if !g2.HasWeights() {
		t.Fatal("weights lost in round trip")
	}
	if w := g2.OutWeights(0)[0]; w != 2.5 {
		t.Errorf("weight = %v, want 2.5", w)
	}
	if w := g2.OutWeights(1)[0]; w != 0.125 {
		t.Errorf("weight = %v, want 0.125", w)
	}
}

func TestReadEdgeListInfersVertexCount(t *testing.T) {
	g, err := readText(t, "0 7\n3 2\n")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 8 {
		t.Errorf("NumVertices = %d, want 8", g.NumVertices())
	}
}

func TestReadEdgeListIgnoresCommentsAndBlanks(t *testing.T) {
	in := "# a comment\n\n# vertices 4\n0 1\n\n# trailing\n2 3\n"
	g, err := readText(t, in)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 2 {
		t.Errorf("got %v, want 4 vertices / 2 edges", g)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []struct {
		name    string
		input   string
		wantMsg string
	}{
		{"too few fields", "0\n", "line 1"},
		{"too many fields", "0 1 2 3\n", "line 1"},
		{"bad source", "x 1\n", `bad source "x"`},
		{"bad destination", "0 y\n", `bad destination "y"`},
		{"bad weight", "0 1 notnum\n", `bad weight "notnum"`},
		{"truncated line mid-file", "0 1\n1\n2 3\n", "line 2"},
		{"negative source", "-3 1\n", "must be non-negative"},
		{"negative destination", "0 1\n0 -9\n", "line 2"},
		{"oversized source", "2147483647 0\n", "vertex ID exceeds"},
		{"oversized destination", "0 3000000000\n", "vertex ID exceeds"},
		{"source past int64", "99999999999999999999 0\n", "vertex ID exceeds"},
		{"negative past int64", "-99999999999999999999 0\n", "must be non-negative"},
		{"NaN weight", "0 1 NaN\n", "finite"},
		{"+Inf weight", "0 1 +Inf\n", "finite"},
		{"-Inf weight", "0 1 -Infinity\n", "finite"},
		{"weight overflows float32", "0 1 6e38\n", "finite"},
		{"bad header count", "# vertices x\n", `bad vertex count "x"`},
		{"negative header count", "# vertices -2\n", "bad vertex count"},
		{"header count past int32", "# vertices 3000000000\n", "bad vertex count"},
		{"conflicting headers", "# vertices 3\n0 1\n# vertices 5\n", "line 3"},
		{"edge above header count", "# vertices 2\n0 5\n", "out-of-range destination"},
	}
	for _, tc := range cases {
		_, err := readText(t, tc.input)
		if err == nil {
			t.Errorf("%s: LoadEdgeList(%q) succeeded, want error containing %q", tc.name, tc.input, tc.wantMsg)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantMsg) {
			t.Errorf("%s: error %q, want it to contain %q", tc.name, err, tc.wantMsg)
		}
	}
}

func TestReadEdgeListHeaderAnywhere(t *testing.T) {
	// A later header is honoured, not silently replaced by inference.
	g, err := readText(t, "0 1\n1 2\n# vertices 9\n")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 9 {
		t.Errorf("NumVertices = %d, want 9 (trailing header ignored)", g.NumVertices())
	}
	// Agreeing duplicates are fine wherever they appear.
	g, err = readText(t, "# vertices 4\n0 1\n# vertices 4\n2 3\n")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 {
		t.Errorf("NumVertices = %d, want 4", g.NumVertices())
	}
}

func TestReadEdgeListAcceptsSignedZeroAndPlus(t *testing.T) {
	g, err := readText(t, "+0 +2\n-0 1\n")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("got %v, want 3 vertices / 2 edges", g)
	}
}

func TestReadEdgeListMixedWeightDefaults(t *testing.T) {
	// First edge unweighted, second weighted: first should default to 1.
	g, err := readText(t, "# vertices 3\n0 1\n1 2 4.0\n")
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasWeights() {
		t.Fatal("expected weighted graph")
	}
	if w := g.OutWeights(0)[0]; w != 1 {
		t.Errorf("default weight = %v, want 1", w)
	}
}
