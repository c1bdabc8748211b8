package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"predict/internal/parallel"
)

// graphsIdentical reports bit-identity of the CSR representation: same
// offsets, same adjacency, same weights (including weightedness).
func graphsIdentical(a, b *Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	if a.HasWeights() != b.HasWeights() {
		return false
	}
	for v := 0; v <= a.NumVertices(); v++ {
		if v < len(a.offsets) != (v < len(b.offsets)) {
			return false
		}
	}
	for i := range a.offsets {
		if a.offsets[i] != b.offsets[i] {
			return false
		}
	}
	for i := range a.edges {
		if a.edges[i] != b.edges[i] {
			return false
		}
	}
	for i := range a.weights {
		if a.weights[i] != b.weights[i] {
			return false
		}
	}
	return true
}

// loadConfigs are the parallelism/chunking shapes the equivalence tests
// sweep: single shard, many tiny shards (every line its own shard for
// small inputs), and realistic multi-shard splits.
var loadConfigs = []LoadOptions{
	{Pool: parallel.NewPool(1)},
	{Pool: parallel.NewPool(2), chunkBytes: 1},
	{Pool: parallel.NewPool(3), chunkBytes: 7},
	{Pool: parallel.NewPool(8), chunkBytes: 64},
	{Pool: parallel.NewPool(4), chunkBytes: 4096},
}

// assertLoadMatchesSequential parses input with ReadEdgeList and with the
// parallel loader under every load config, requiring both paths to agree
// on success/failure and, on success, produce bit-identical graphs.
func assertLoadMatchesSequential(t *testing.T, input string) {
	t.Helper()
	seq, seqErr := ReadEdgeList(strings.NewReader(input))
	for _, cfg := range loadConfigs {
		par, parErr := LoadEdgeList(strings.NewReader(input), cfg)
		if (seqErr == nil) != (parErr == nil) {
			t.Fatalf("config %+v: sequential err = %v, parallel err = %v\ninput: %q",
				cfg, seqErr, parErr, clip(input))
		}
		if seqErr != nil {
			continue
		}
		if !graphsIdentical(seq, par) {
			t.Fatalf("config %+v: parallel graph differs from sequential\ninput: %q\nseq: %v\npar: %v",
				cfg, clip(input), seq, par)
		}
	}
}

func clip(s string) string {
	if len(s) > 400 {
		return s[:400] + "..."
	}
	return s
}

func TestLoadEdgeListMatchesSequentialHandwritten(t *testing.T) {
	cases := []string{
		"",
		"\n\n\n",
		"# just a comment\n",
		"0 1\n",
		"0 1",
		"0 1\n1 2\n2 0\n",
		"# vertices 4\n0 1\n2 3\n",
		"0 1\n# vertices 4\n2 3\n",           // header after edges
		"0 1\n2 3\n# vertices 4",             // trailing header, no newline
		"# vertices 4\n# vertices 4\n0 1\n",  // repeated agreeing headers
		"  0\t1 \n\t2  3\t\n",                // tabs and padding
		"0 1\r\n1 2\r\n",                     // CRLF
		"0 1 2.5\n1 2 0.125\n",               // weighted
		"0 1\n1 2 4.0\n2 0\n",                // mixed: weight appears mid-file
		"0 1 1e-3\n1 0 -2.75\n",              // exotic but finite weights
		"5 5\n5 5\n",                         // self loops + duplicates
		"3 1\n3 1\n3 2\n3 0\n",               // parallel edges, unsorted
		"+0 +1\n",                            // explicit plus signs
		"-0 1\n",                             // negative zero ID is zero
		"# vertices 3\n\n#c\n0 2\n\n\n1 0\n", // blanks and comments interleaved
		"0\u00a01\n",                         // non-breaking space separates fields (unicode.IsSpace)
		"# vertices 10\n9 0\n",               // header larger than max ID
		"0 1 3\n0 1 7\n",                     // duplicate weighted edge: first weight wins
		"2 1 0.5\n2 1\n2 0\n",                // duplicate where the dup is unweighted
		"# vertices x\n",                     // bad header count
		"# vertices 3\n# vertices 4\n",       // conflicting headers
		"0 1\n# vertices 1\n",                // header too small for edges
		"0\n",                                // too few fields
		"0 1 2 3\n",                          // too many fields
		"a 1\n",                              // bad source
		"0 b\n",                              // bad destination
		"0 1 nope\n",                         // bad weight
		"0 1 NaN\n",                          // NaN weight
		"0 1 Inf\n",                          // Inf weight
		"0 1 -inf\n",                         // -Inf weight
		"0 1 1e40\n",                         // overflows float32 to Inf
		"-1 0\n",                             // negative source
		"0 -2\n",                             // negative destination
		"3000000000 0\n",                     // ID past int32
		"99999999999999999999999999999 0\n",  // ID past int64
		"-99999999999999999999999999999 0\n", // negative past int64
		"# vertices 99999999999999999999\n",  // header count past int64
		"# vertices -1\n",                    // negative header count
		"0 1\nx y\n2 3\n",                    // error mid-file
		"\ufeff0 1\n",                        // BOM is not whitespace: parse error
	}
	for _, in := range cases {
		assertLoadMatchesSequential(t, in)
	}
}

// TestLoadEdgeListCanonicalLineBoundaries walks the edges of the "src dst"
// form the chunk parser reads without field splitting: each case is one
// step inside or outside it, and either way the loader must agree with
// the reference reader on accepting the input, on the error it reports
// (line included) and on the graph it builds. The "# vertices 3" header
// makes an ID that parses but exceeds the graph fail the range check
// instead of allocating a graph that large.
func TestLoadEdgeListCanonicalLineBoundaries(t *testing.T) {
	const h = "# vertices 3\n"
	pad := func(line string, length int) string {
		return line + strings.Repeat(" ", length-len(line))
	}
	cases := []string{
		h + "2147483646 0\n",      // 10 digits at maxVertexID: parses, fails the range check
		h + "0 2147483646\n",      // the same as destination
		h + "2147483647 0\n",      // maxVertexID+1: too big
		h + "0 2147483647\n",      // the same as destination
		h + "10000000000 0\n",     // 11 digits
		h + "0 10000000000\n",     // 11 digits as destination
		h + "00000000001 2\n",     // 11 digits with leading zeros: a legal ID
		h + "0000000002 01\n",     // 10 digits with leading zeros
		h + "9999999999 0\n",      // 10 digits past maxVertexID
		h + "+1 2\n",              // explicit plus
		h + "1 +2\n",              // explicit plus on the destination
		h + "-0 1\n",              // negative zero
		h + "-1 0\n",              // negative source
		h + "0 -1\n",              // negative destination
		h + "0 1\r\n1 2\r\n",      // CRLF
		h + "0\t1\n1\t\t2\n",      // tabs between fields
		h + "0 \t 1\t \r\n",       // mixed blanks around the second field
		h + "0 1 \n1 2\t\n",       // trailing blanks
		h + " 0 1\n",              // leading blank
		h + "0\v1\n",              // vertical tab between fields
		h + "0\f1\n",              // form feed between fields
		h + "0 1\v\n",             // trailing vertical tab
		h + "0\u00a01\n",          // U+00A0 between fields
		h + "0 1\u00a0\n",         // trailing U+00A0
		h + "0\u00851\n",          // U+0085 between fields
		h + "0\xa01\n",            // a lone 0xA0 byte (invalid UTF-8) is a field byte
		h + "0 1\xa0\n",           // the same after the second field
		h + "0\xc2 1\n",           // a lone 0xC2 lead byte is a field byte
		h + "0 1\n1 2",            // last line without a newline
		h + "0 1\n1 2\r",          // last line ending in a bare CR
		h + "0 1\r2\n",            // CR inside the line: three fields
		h + "0 1\n1 2 0.5\n2 0\n", // a weighted line after unweighted ones in one shard
		h + "0 1 2\n",             // three ID-like fields: the third is a weight
		h + "0 1x\n",              // trailing garbage
		h + "0x 1\n",              // garbage in the source
		h + "0\n",                 // one field
		h + "01\n",                // one field of digits
		h + "0 \n",                // one field and a blank
		h + "0 1 # c\n",           // a comment is not a weight
		h + "\n\n0 1\n\n",         // blank lines around an edge
		pad(h+"0 1", len(h)+maxLineBytes-1) + "\n",         // a line of maxLineBytes-1 bytes
		pad(h+"0 1", len(h)+maxLineBytes) + "\n",           // a line of maxLineBytes bytes
		pad(h+"0 1", len(h)+maxLineBytes-1),                // the same without a newline
		pad(h+"0 1", len(h)+maxLineBytes),                  // the same without a newline
		h + pad("0", maxLineBytes-2) + "1\n",               // one long separator, maxLineBytes-1 bytes
		h + pad("0", maxLineBytes-1) + "1\n",               // one long separator, maxLineBytes bytes
		h + "0 1\n" + pad("1 2", maxLineBytes) + "\n2 0\n", // an over-long line between edges
	}
	for _, in := range cases {
		assertLoadMatchesSequential(t, in)
		want := errorText(ReadEdgeList(strings.NewReader(in)))
		for _, cfg := range loadConfigs {
			if got := errorText(LoadEdgeList(strings.NewReader(in), cfg)); got != want {
				t.Errorf("config %+v, input %q: loader error %q, reference %q", cfg, clip(in), got, want)
			}
		}
	}
}

// errorText is err's message, or "" for nil.
func errorText(_ *Graph, err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestLoadEdgeListMatchesSequentialRandom holds the two implementations
// equal on randomized edge lists: random shapes, random formatting noise
// (comments, blank lines, padding, weight mixes, header placement).
func TestLoadEdgeListMatchesSequentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(40)
		var sb strings.Builder
		headerAt := -1
		lines := rng.Intn(120)
		if rng.Intn(2) == 0 {
			headerAt = rng.Intn(lines + 1)
		}
		for i := 0; i < lines; i++ {
			if i == headerAt {
				fmt.Fprintf(&sb, "# vertices %d\n", n)
			}
			switch rng.Intn(10) {
			case 0:
				sb.WriteString("\n")
			case 1:
				fmt.Fprintf(&sb, "# comment %d\n", i)
			default:
				src, dst := rng.Intn(n), rng.Intn(n)
				pad := strings.Repeat(" ", rng.Intn(3))
				sep := []string{" ", "\t", "  ", " \t"}[rng.Intn(4)]
				if rng.Intn(3) == 0 {
					fmt.Fprintf(&sb, "%s%d%s%d%s%.3f\n", pad, src, sep, dst, sep, rng.Float64()*10-5)
				} else {
					fmt.Fprintf(&sb, "%s%d%s%d\n", pad, src, sep, dst)
				}
			}
		}
		assertLoadMatchesSequential(t, sb.String())
	}
}

// TestLoadEdgeListRoundTripsWrittenGraphs drives randomly built graphs
// (parallel edges, self-loops, weights) through WriteEdgeList and back via
// the parallel loader.
func TestLoadEdgeListRoundTripsWrittenGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(50)
		b := NewBuilder(n)
		weighted := rng.Intn(2) == 0
		for e := rng.Intn(4 * n); e > 0; e-- {
			if weighted {
				b.AddWeightedEdge(VertexID(rng.Intn(n)), VertexID(rng.Intn(n)), float32(rng.NormFloat64()))
			} else {
				b.AddEdge(VertexID(rng.Intn(n)), VertexID(rng.Intn(n)))
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		assertLoadMatchesSequential(t, buf.String())
		got, err := LoadEdgeList(bytes.NewReader(buf.Bytes()), LoadOptions{Pool: parallel.NewPool(4), chunkBytes: 32})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !graphsIdentical(g, got) {
			t.Fatalf("trial %d: loaded graph differs from source", trial)
		}
	}
}

func TestLoadEdgeListErrorLineNumbers(t *testing.T) {
	cases := []struct {
		input    string
		wantLine string
	}{
		{"0 1\n1 2\nx 3\n", "line 3"},
		{"0 1\n\n# c\n0 -7\n", "line 4"},
		{"# vertices 3\n0 1\n# vertices 5\n", "line 3"},
		{"0 1 NaN\n", "line 1"},
		{"0 1\n1 2\n3000000000 1\n", "line 3"},
	}
	for _, tc := range cases {
		for _, cfg := range loadConfigs {
			_, err := LoadEdgeList(strings.NewReader(tc.input), cfg)
			if err == nil {
				t.Fatalf("LoadEdgeList(%q) succeeded, want error", tc.input)
			}
			if !strings.Contains(err.Error(), tc.wantLine) {
				t.Errorf("LoadEdgeList(%q) config %+v error %q, want it to name %q",
					tc.input, cfg, err, tc.wantLine)
			}
		}
		_, err := ReadEdgeList(strings.NewReader(tc.input))
		if err == nil || !strings.Contains(err.Error(), tc.wantLine) {
			t.Errorf("ReadEdgeList(%q) error %v, want it to name %q", tc.input, err, tc.wantLine)
		}
	}
}

func TestLoadEdgeListLineTooLong(t *testing.T) {
	long := "0 1 " + strings.Repeat("#", maxLineBytes)
	input := "0 1\n" + long + "\n"
	if _, err := ReadEdgeList(strings.NewReader(input)); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("ReadEdgeList long line error = %v, want positional error on line 2", err)
	}
	if _, err := LoadEdgeList(strings.NewReader(input), LoadOptions{Pool: parallel.NewPool(2)}); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("LoadEdgeList long line error = %v, want positional error on line 2", err)
	}
}

func TestLoadEdgeListOnSharedPool(t *testing.T) {
	pool := parallel.NewPool(3)
	input := "# vertices 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n"
	g, err := LoadEdgeList(strings.NewReader(input), LoadOptions{Pool: pool, chunkBytes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 6 || g.NumEdges() != 6 {
		t.Fatalf("got %v, want 6 vertices / 6 edges", g)
	}
}

func TestSplitChunksLineAligned(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		var sb bytes.Buffer
		for i := rng.Intn(60); i > 0; i-- {
			sb.WriteString(strings.Repeat("x", rng.Intn(9)))
			if rng.Intn(5) > 0 {
				sb.WriteByte('\n')
			}
		}
		data := sb.Bytes()
		chunks := splitChunks(data, 1+rng.Intn(16))
		var rejoined []byte
		for i, c := range chunks {
			if len(c) == 0 {
				t.Fatalf("chunk %d empty", i)
			}
			if i < len(chunks)-1 && c[len(c)-1] != '\n' {
				t.Fatalf("chunk %d does not end at a line boundary", i)
			}
			rejoined = append(rejoined, c...)
		}
		if !bytes.Equal(rejoined, data) {
			t.Fatal("chunks do not rejoin to the input")
		}
	}
}

// edgeListText is WriteEdgeList's text of a graph of n vertices and about
// m edges: each vertex's out-edges go to destinations drawn from a fixed
// LCG, so the text is the same on every run, and the writer prints each
// adjacency sorted, as it does for every file the service loads.
func edgeListText(tb testing.TB, n, m int) []byte {
	tb.Helper()
	b := NewBuilder(n)
	state := uint64(7)
	for e := 0; e < m; e++ {
		state = state*6364136223846793005 + 1442695040888963407
		b.AddEdge(VertexID(int64(e)*int64(n)/int64(m)), VertexID((state>>33)%uint64(n)))
	}
	g, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// writeTextTemp writes text to a fresh temporary edge-list file.
func writeTextTemp(tb testing.TB, text []byte) string {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "g.txt")
	if err := os.WriteFile(path, text, 0o644); err != nil {
		tb.Fatal(err)
	}
	return path
}

// TestLoadEdgeListAllocs pins what loading a text edge list allocates on
// a fixed two-slot pool, on a file large enough (12k vertices, about 60k
// edges, ten shards) that a per-line allocation, or ID buffers grown by
// append (about 14 growths per buffer per shard here), could not hide
// under the ceiling. Each shard sizes its two ID buffers once from its
// line count, so what is left is the file read, the chunk list, the
// buffers, the pool's per-task goroutines and the CSR arrays (measured
// 64).
func TestLoadEdgeListAllocs(t *testing.T) {
	const n, m, ceiling = 12000, 60000, 80
	path := writeTextTemp(t, edgeListText(t, n, m))
	opts := LoadOptions{Pool: parallel.NewPool(2)}
	var g *Graph
	allocs := testing.AllocsPerRun(5, func() {
		var err error
		if g, err = LoadFile(path, opts); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("LoadFile: %.0f allocations", allocs)
	if g.NumVertices() != n || g.NumEdges() == 0 {
		t.Fatalf("loaded %v, want %d vertices", g, n)
	}
	if allocs > ceiling {
		t.Errorf("LoadFile allocates %.0f times on a %d-edge text, ceiling %d", allocs, m, ceiling)
	}
}

// BenchmarkLoadEdgeList loads a text edge list the size of the benchmark
// corpus's tw_text.txt (40,000 vertices, 1,413,356 edges, about 14 MB)
// from disk with LoadFile's automatic sharding.
func BenchmarkLoadEdgeList(b *testing.B) {
	text := edgeListText(b, 40000, 1413356)
	path := writeTextTemp(b, text)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadFile(path, LoadOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
