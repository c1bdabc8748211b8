package graph

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"predict/internal/parallel"
)

// FuzzReadEdgeList asserts two properties over arbitrary text input:
//
//  1. Fixpoint: when the input parses, parse→write→parse reproduces the
//     graph bit-identically (WriteEdgeList output is canonical for the
//     graph it encodes).
//  2. Loader equivalence: the parallel loader accepts exactly the inputs
//     ReadEdgeList accepts and produces a bit-identical graph, at shard
//     shapes from one-shard to line-per-shard.
func FuzzReadEdgeList(f *testing.F) {
	seeds := []string{
		"",
		"0 1\n1 2\n",
		"# vertices 4\n0 1\n2 3 0.5\n",
		"0 1\n# vertices 4\n2 3\n",
		"# vertices 3\n# vertices 3\n1 0\n",
		"5 5\n5 5\n4 1 2.5\n4 1\n",
		"  0\t1 \r\n\t2  3\t\n",
		"a b\n",
		"0 1 NaN\n",
		"-1 2\n",
		"# vertices x\n",
		"3000000000 0\n",
		// The canonical "src dst" line the chunk parser reads without
		// field splitting, and the steps just outside it.
		"0 1",
		"0\t1\r\n1 \t2 \t\r\n",
		"0 1\n1 2 0.5\n2 0\n",
		"01 +2\n-0 1\n",
		"0\v1\n0 1\f\n",
		"0\u00a01\n0\xa01\n",
		"0 1\r2\n0 1x\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		// Guard fuzz throughput: a single valid line like "300000000 0"
		// legitimately allocates gigabytes of CSR for a graph with hundreds
		// of millions of vertices. Any run of 7+ digits can name such a
		// vertex; those inputs are property-tested in io_test.go and
		// loader_test.go instead.
		digits := 0
		for i := 0; i < len(input); i++ {
			if input[i] >= '0' && input[i] <= '9' {
				if digits++; digits >= 7 {
					t.Skip("skipping input with huge numeric token")
				}
			} else {
				digits = 0
			}
		}
		seq, seqErr := ReadEdgeList(strings.NewReader(input))
		for _, cfg := range []LoadOptions{
			{Pool: parallel.NewPool(1)},
			{Pool: parallel.NewPool(4), chunkBytes: 3},
			{Pool: parallel.NewPool(2), chunkBytes: 64},
		} {
			par, parErr := LoadEdgeList(strings.NewReader(input), cfg)
			if (seqErr == nil) != (parErr == nil) {
				t.Fatalf("config %+v: sequential err = %v, parallel err = %v", cfg, seqErr, parErr)
			}
			if seqErr == nil && !graphsIdentical(seq, par) {
				t.Fatalf("config %+v: parallel load differs from sequential", cfg)
			}
		}
		if seqErr != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, seq); err != nil {
			t.Fatalf("WriteEdgeList: %v", err)
		}
		again, err := ReadEdgeList(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reparse of written graph failed: %v", err)
		}
		if seq.NumEdges() == 0 {
			// A graph whose weighted edges were all dropped (self-loops)
			// keeps a vestigial empty weight array the text format cannot
			// express; everything else must still round-trip.
			if again.NumVertices() != seq.NumVertices() || again.NumEdges() != 0 {
				t.Fatal("parse -> write -> parse changed an edgeless graph")
			}
			return
		}
		if !graphsIdentical(seq, again) {
			t.Fatal("parse -> write -> parse is not a fixpoint")
		}
	})
}

// FuzzReadSnapshot asserts that the snapshot decoder never panics on arbitrary
// bytes and that accepted inputs are canonical: decode→encode reproduces
// the exact input bytes (so decode→encode→decode is trivially a
// fixpoint).
func FuzzReadSnapshot(f *testing.F) {
	// Seed with valid snapshots (weighted and not) and light corruptions.
	g := MustFromEdges(5, [][2]VertexID{{0, 1}, {0, 4}, {2, 3}, {4, 0}})
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	b := NewBuilder(3)
	b.AddWeightedEdge(0, 1, 0.5)
	b.AddWeightedEdge(2, 1, -3)
	wg, err := b.Build()
	if err != nil {
		f.Fatal(err)
	}
	buf.Reset()
	if err := WriteSnapshot(&buf, wg); err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Clone(buf.Bytes()))
	f.Add(valid[:len(valid)-3])
	f.Add(bytes.Clone(snapshotMagic[:]))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := decodeSnapshot(data)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteSnapshot(&out, g); err != nil {
			t.Fatalf("re-encode of accepted snapshot failed: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatal("accepted snapshot is not canonical: re-encode differs from input")
		}
	})
}

// FuzzMmapSnapshot asserts reader equivalence over arbitrary bytes: the
// mmap alias path accepts exactly the inputs the copy-in reader accepts
// (same error text on rejection, since both run the shared frame and
// structural checks) and decodes accepted inputs to an identical graph.
func FuzzMmapSnapshot(f *testing.F) {
	if !mmapSupported || !hostLittleEndian {
		f.Skip("mmap snapshots unsupported on this platform")
	}
	g := MustFromEdges(5, [][2]VertexID{{0, 1}, {0, 4}, {2, 3}, {4, 0}})
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	b := NewBuilder(3)
	b.AddWeightedEdge(0, 1, 0.5)
	b.AddWeightedEdge(2, 1, -3)
	wg, err := b.Build()
	if err != nil {
		f.Fatal(err)
	}
	buf.Reset()
	if err := WriteSnapshot(&buf, wg); err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Clone(buf.Bytes()))
	f.Add(valid[:len(valid)-3])
	f.Add(bytes.Clone(snapshotMagic[:]))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.snap")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want, readErr := decodeSnapshot(data)
		mg, mmapErr := mmapSnapshot(path)
		if (readErr == nil) != (mmapErr == nil) {
			t.Fatalf("readers disagree: copy-in err = %v, mmap err = %v", readErr, mmapErr)
		}
		if readErr != nil {
			if readErr.Error() != mmapErr.Error() {
				t.Fatalf("error text differs:\n  copy-in: %v\n  mmap:    %v", readErr, mmapErr)
			}
			return
		}
		defer mg.mapped.release()
		if !graphsIdentical(want, mg) {
			t.Fatal("mapped graph differs from copy-in decode")
		}
	})
}
