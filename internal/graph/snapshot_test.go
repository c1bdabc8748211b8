package graph

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"predict/internal/parallel"
)

func buildRandomGraph(t *testing.T, rng *rand.Rand, weighted bool) *Graph {
	t.Helper()
	n := 1 + rng.Intn(60)
	b := NewBuilder(n)
	for e := rng.Intn(5 * n); e > 0; e-- {
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
	return g
}

func snapshotBytes(t *testing.T, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	return buf.Bytes()
}

func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		g := buildRandomGraph(t, rng, trial%2 == 0)
		got, err := decodeSnapshot(snapshotBytes(t, g))
		if err != nil {
			t.Fatalf("trial %d: decodeSnapshot: %v", trial, err)
		}
		if !graphsIdentical(g, got) {
			t.Fatalf("trial %d: snapshot round trip changed the graph", trial)
		}
	}
}

func TestSnapshotRoundTripEmptyGraph(t *testing.T) {
	g, err := NewBuilder(0).Build()
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeSnapshot(snapshotBytes(t, g))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != 0 || got.NumEdges() != 0 || got.HasWeights() {
		t.Fatalf("empty round trip gave %v (weights %v)", got, got.HasWeights())
	}
	// The zero-value Graph (nil offsets) must also snapshot cleanly.
	var zero Graph
	got, err = decodeSnapshot(snapshotBytes(t, &zero))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != 0 {
		t.Fatalf("zero-value round trip gave %v", got)
	}
}

func TestSnapshotPreservesSelfLoopsAndNaNWeights(t *testing.T) {
	b := NewBuilder(3)
	b.AddWeightedEdge(0, 2, 1.5)
	b.AddWeightedEdge(2, 1, -0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g = withSelfLoops(g, map[VertexID]float32{0: float32(math.NaN())})
	got, err := decodeSnapshot(snapshotBytes(t, g))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3 (self-loop lost?)", got.NumEdges())
	}
	w := got.OutWeights(0)
	if !math.IsNaN(float64(w[0])) {
		t.Errorf("NaN weight not preserved: %v", w[0])
	}
	if math.Float32bits(w[0]) != math.Float32bits(g.OutWeights(0)[0]) {
		t.Errorf("NaN payload bits changed: %#x vs %#x",
			math.Float32bits(w[0]), math.Float32bits(g.OutWeights(0)[0]))
	}
}

// TestSnapshotCanonicalEncoding: a valid snapshot re-encodes to the
// identical byte sequence — the property FuzzReadSnapshot leans on.
func TestSnapshotCanonicalEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		g := buildRandomGraph(t, rng, trial%2 == 0)
		raw := snapshotBytes(t, g)
		got, err := decodeSnapshot(raw)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snapshotBytes(t, got), raw) {
			t.Fatalf("trial %d: re-encoded snapshot differs", trial)
		}
	}
}

// corrupt returns a copy of b with f applied, checksum left stale.
func corrupt(b []byte, f func([]byte)) []byte {
	c := bytes.Clone(b)
	f(c)
	return c
}

// reseal recomputes the trailing checksum so structural validation (not
// the checksum) is what rejects the mutation.
func reseal(b []byte) {
	sum := xxhash64Sum(b[:len(b)-snapshotTrailerLen], 0)
	binary.LittleEndian.PutUint64(b[len(b)-snapshotTrailerLen:], sum)
}

func TestSnapshotCorruption(t *testing.T) {
	b := NewBuilder(4)
	b.AddWeightedEdge(0, 1, 2.5)
	b.AddWeightedEdge(1, 2, 1)
	b.AddWeightedEdge(3, 0, -4)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	valid := snapshotBytes(t, g)

	cases := []struct {
		name    string
		data    []byte
		wantMsg string
	}{
		{"empty", nil, "truncated"},
		{"short header", valid[:10], "truncated"},
		{"bad magic", corrupt(valid, func(b []byte) { b[0] = 'X' }), "bad magic"},
		{"bad version", corrupt(valid, func(b []byte) {
			binary.LittleEndian.PutUint16(b[4:6], 99)
			reseal(b)
		}), "unsupported version"},
		{"unknown flags", corrupt(valid, func(b []byte) {
			binary.LittleEndian.PutUint16(b[6:8], 0x8001)
			reseal(b)
		}), "unknown flags"},
		{"truncated body", valid[:len(valid)-9], "bytes, want"},
		{"trailing garbage", append(bytes.Clone(valid), 0), "bytes, want"},
		{"flipped payload byte", corrupt(valid, func(b []byte) { b[snapshotHeaderLen+3] ^= 0x40 }), "checksum mismatch"},
		{"flipped checksum", corrupt(valid, func(b []byte) { b[len(b)-1] ^= 0x01 }), "checksum mismatch"},
		{"implausible edge count", corrupt(valid, func(b []byte) {
			binary.LittleEndian.PutUint64(b[16:24], 1<<57)
			reseal(b)
		}), "implausible edge count"},
		{"vertex count overflow", corrupt(valid, func(b []byte) {
			binary.LittleEndian.PutUint64(b[8:16], 1<<40)
			reseal(b)
		}), "exceeds"},
		{"non-monotone offsets", corrupt(valid, func(b []byte) {
			// offsets[1] = 3 > offsets[2]
			binary.LittleEndian.PutUint64(b[snapshotHeaderLen+8:], 3)
			reseal(b)
		}), "not monotone"},
		{"offsets end mismatch", corrupt(valid, func(b []byte) {
			binary.LittleEndian.PutUint64(b[snapshotHeaderLen+4*8:], 2)
			reseal(b)
		}), "offsets end"},
		{"out-of-range neighbor", corrupt(valid, func(b []byte) {
			binary.LittleEndian.PutUint32(b[snapshotHeaderLen+5*8:], 77)
			reseal(b)
		}), "out-of-range neighbor"},
	}
	for _, tc := range cases {
		_, err := decodeSnapshot(tc.data)
		if err == nil {
			t.Errorf("%s: decodeSnapshot succeeded, want error containing %q", tc.name, tc.wantMsg)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantMsg) {
			t.Errorf("%s: error %q, want it to contain %q", tc.name, err, tc.wantMsg)
		}
	}
}

func TestSnapshotUnsortedAdjacencyRejected(t *testing.T) {
	g := MustFromEdges(3, [][2]VertexID{{0, 1}, {0, 2}, {1, 0}})
	raw := snapshotBytes(t, g)
	// Swap vertex 0's two neighbors (1, 2) -> (2, 1) and reseal.
	edgesOff := snapshotHeaderLen + 4*8
	bad := corrupt(raw, func(b []byte) {
		binary.LittleEndian.PutUint32(b[edgesOff:], 2)
		binary.LittleEndian.PutUint32(b[edgesOff+4:], 1)
		reseal(b)
	})
	if _, err := decodeSnapshot(bad); err == nil || !strings.Contains(err.Error(), "not strictly sorted") {
		t.Errorf("unsorted adjacency error = %v, want sorted-adjacency rejection", err)
	}
}

func TestSnapshotFileHelpersAndLoadFileSniffing(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := buildRandomGraph(t, rng, true)
	dir := t.TempDir()

	snapPath := filepath.Join(dir, "g.snap")
	if err := WriteSnapshotFile(snapPath, g); err != nil {
		t.Fatalf("WriteSnapshotFile: %v", err)
	}
	got, err := ReadSnapshotFile(snapPath)
	if err != nil {
		t.Fatalf("ReadSnapshotFile: %v", err)
	}
	if !graphsIdentical(g, got) {
		t.Fatal("file round trip changed the graph")
	}

	// LoadFile detects snapshots by magic and text by fallback.
	got, err = LoadFile(snapPath, LoadOptions{})
	if err != nil {
		t.Fatalf("LoadFile(snapshot): %v", err)
	}
	if !graphsIdentical(g, got) {
		t.Fatal("LoadFile(snapshot) changed the graph")
	}

	textPath := filepath.Join(dir, "g.txt")
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(textPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = LoadFile(textPath, LoadOptions{Pool: parallel.NewPool(2), chunkBytes: 64})
	if err != nil {
		t.Fatalf("LoadFile(text): %v", err)
	}
	if !graphsIdentical(g, got) {
		t.Fatal("LoadFile(text) changed the graph")
	}

	if _, err := LoadFile(filepath.Join(dir, "missing.snap"), LoadOptions{}); err == nil {
		t.Error("LoadFile on a missing path succeeded")
	}
}
