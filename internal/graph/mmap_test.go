package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// writeSnapTemp writes g as a snapshot under t's temp dir and returns
// the path.
func writeSnapTemp(t *testing.T, g *Graph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.snap")
	if err := WriteSnapshotFile(path, g); err != nil {
		t.Fatalf("WriteSnapshotFile: %v", err)
	}
	return path
}

// mmapTestGraphs covers the shapes the alias path special-cases: plain,
// weighted, edgeless (nil edges), and weighted-edgeless (empty non-nil
// weights).
func mmapTestGraphs(t *testing.T) map[string]*Graph {
	t.Helper()
	weighted := NewBuilder(4)
	weighted.AddWeightedEdge(0, 3, 1.5)
	weighted.AddWeightedEdge(2, 1, -0.25)
	weighted.AddWeightedEdge(3, 0, 42)
	wg, err := weighted.Build()
	if err != nil {
		t.Fatal(err)
	}
	emptyWeighted := NewBuilder(2)
	emptyWeighted.AddWeightedEdge(0, 0, 9) // self-loop: dropped, weights stay on
	ewg, err := emptyWeighted.Build()
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Graph{
		"plain":            MustFromEdges(5, [][2]VertexID{{0, 1}, {0, 4}, {2, 3}, {4, 0}}),
		"weighted":         wg,
		"edgeless":         MustFromEdges(3, nil),
		"weighted_no_edge": ewg,
	}
}

// TestMmapSnapshotMatchesRead pins the alias path's core contract: the
// mapped graph is bit-identical to the copy-in reader's on every shape,
// and lazily built derived state (reverse adjacency, degree artifacts)
// works on mapped graphs because it lives on the heap.
func TestMmapSnapshotMatchesRead(t *testing.T) {
	if !mmapSupported || !hostLittleEndian {
		t.Skip("mmap snapshots unsupported on this platform")
	}
	for name, g := range mmapTestGraphs(t) {
		t.Run(name, func(t *testing.T) {
			path := writeSnapTemp(t, g)
			want, err := ReadSnapshotFile(path)
			if err != nil {
				t.Fatalf("ReadSnapshotFile: %v", err)
			}
			got, err := mmapSnapshot(path)
			if err != nil {
				t.Fatalf("mmapSnapshot: %v", err)
			}
			defer got.mapped.release()
			if !graphsIdentical(want, got) {
				t.Fatal("mapped graph differs from copy-in read")
			}
			if fi, err := os.Stat(path); err != nil || int64(len(got.mapped.data)) != fi.Size() {
				t.Fatalf("mapped %d bytes, want file size (%v)", len(got.mapped.data), err)
			}
			if !graphsIdentical(want.Reverse(), got.Reverse()) {
				t.Fatal("transpose differs on mapped graph")
			}
			if got.MaxOutDegree() != want.MaxOutDegree() {
				t.Fatal("degree artifacts differ on mapped graph")
			}
		})
	}
}

// TestMmapSnapshotRejectionParity feeds both readers the same corrupted
// inputs and requires them to agree — same acceptance, same error text.
// The two paths share parseSnapshotFrame and validateSnapshotCSR, and
// this test keeps it that way.
func TestMmapSnapshotRejectionParity(t *testing.T) {
	if !mmapSupported || !hostLittleEndian {
		t.Skip("mmap snapshots unsupported on this platform")
	}
	g := MustFromEdges(5, [][2]VertexID{{0, 1}, {0, 4}, {2, 3}, {4, 0}})
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	corrupt := func(mutate func(b []byte) []byte) []byte {
		return mutate(bytes.Clone(valid))
	}
	// restamp recomputes the trailing checksum, so a mutation reaches the
	// structural CSR checks instead of dying at the frame stage.
	restamp := func(b []byte) []byte {
		sum := xxhash64Sum(b[:len(b)-snapshotTrailerLen], 0)
		binary.LittleEndian.PutUint64(b[len(b)-snapshotTrailerLen:], sum)
		return b
	}
	edgesOff := snapshotHeaderLen + 6*8 // n=5: offsets array is 6 entries
	cases := map[string][]byte{
		"valid":          bytes.Clone(valid),
		"bad_magic":      corrupt(func(b []byte) []byte { b[0] ^= 0xff; return b }),
		"bad_version":    corrupt(func(b []byte) []byte { b[4] = 99; return b }),
		"bad_flags":      corrupt(func(b []byte) []byte { b[6] = 0x80; return b }),
		"bad_checksum":   corrupt(func(b []byte) []byte { b[len(b)-1] ^= 1; return b }),
		"flipped_offset": corrupt(func(b []byte) []byte { b[snapshotHeaderLen+8] ^= 0x40; return b }),
		"flipped_edge":   corrupt(func(b []byte) []byte { b[len(b)-snapshotTrailerLen-2] ^= 0x40; return b }),
		"truncated":      valid[:len(valid)-3],
		"tiny":           valid[:5],
		"empty":          {},
		"trailing_junk":  append(bytes.Clone(valid), 0),
		"offsets_not_monotone": corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[snapshotHeaderLen+8:], 5)
			return restamp(b)
		}),
		"edge_out_of_range": corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[edgesOff:], 200)
			return restamp(b)
		}),
		"adjacency_unsorted": corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[edgesOff+4:], 1) // bucket of 0 becomes [1,1]
			return restamp(b)
		}),
	}
	dir := t.TempDir()
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, name+".snap")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			rg, readErr := ReadSnapshotFile(path)
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
			if !graphsIdentical(rg, mg) {
				t.Fatal("accepted input decodes differently across readers")
			}
		})
	}
}

// TestMappedGraphClose pins the explicit-release contract of a mapped
// graph's region: release is idempotent, and a second mapping of the same
// file is independent of the first's lifetime.
func TestMappedGraphClose(t *testing.T) {
	if !mmapSupported || !hostLittleEndian {
		t.Skip("mmap snapshots unsupported on this platform")
	}
	g := MustFromEdges(4, [][2]VertexID{{0, 1}, {1, 2}, {2, 3}})
	path := writeSnapTemp(t, g)
	a, err := mmapSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mmapSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.mapped.release(); err != nil {
		t.Fatalf("first release: %v", err)
	}
	if err := a.mapped.release(); err != nil {
		t.Fatalf("second release not idempotent: %v", err)
	}
	// b's mapping is its own; a's release must not disturb it.
	if !graphsIdentical(g, b) {
		t.Fatal("independent mapping affected by sibling release")
	}
	if err := b.mapped.release(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenSnapshotFallback pins OpenSnapshot's contract on both kinds of
// platform: a graph identical to the copy-in reader's, with mapped
// reporting which path produced it.
func TestOpenSnapshotFallback(t *testing.T) {
	g := MustFromEdges(4, [][2]VertexID{{0, 1}, {1, 2}, {2, 3}})
	path := writeSnapTemp(t, g)
	got, mapped, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := mmapSupported && hostLittleEndian; mapped != want {
		t.Fatalf("mapped = %v, want %v", mapped, want)
	}
	if !graphsIdentical(g, got) {
		t.Fatal("OpenSnapshot graph differs from source")
	}
	// Missing files surface the os error, not a fallback attempt loop.
	if _, _, err := OpenSnapshot(filepath.Join(t.TempDir(), "absent.snap")); err == nil {
		t.Fatal("OpenSnapshot of a missing file succeeded")
	}
}

// TestSnapshotLoadAllocs pins what loading a snapshot allocates, on a
// graph large enough (12k vertices, > 50k edges) that anything
// proportional to it could not hide under the ceilings. The copy-in
// reader allocates the CSR arrays and a few headers (measured 8; the text
// parse of the same graph allocates tens of thousands), and mapping it
// allocates slice headers over mapped pages and nothing else (measured ~7
// with its Close) — the zero-copy contract.
func TestSnapshotLoadAllocs(t *testing.T) {
	const n, readCeiling, mmapCeiling = 12000, 64, 16
	b := NewBuilder(n)
	state := uint64(7)
	next := func() VertexID {
		state = state*6364136223846793005 + 1442695040888963407
		return VertexID((state >> 33) % n)
	}
	for i := 0; i < 5*n; i++ {
		b.AddEdge(next(), next())
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() < 50000 {
		t.Fatalf("test graph has %d edges, want at least 50000", g.NumEdges())
	}
	path := writeSnapTemp(t, g)

	var loaded *Graph
	allocs := testing.AllocsPerRun(5, func() {
		if loaded, err = ReadSnapshotFile(path); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("ReadSnapshotFile: %.0f allocations", allocs)
	if allocs > readCeiling {
		t.Errorf("ReadSnapshotFile allocates %.0f times on a %d-edge graph, ceiling %d", allocs, g.NumEdges(), readCeiling)
	}
	if !graphsIdentical(g, loaded) {
		t.Fatal("ReadSnapshotFile graph differs from source")
	}

	allocs = testing.AllocsPerRun(5, func() {
		mg, err := mmapSnapshot(path)
		if errors.Is(err, ErrMmapUnsupported) {
			t.Skip("mmap snapshots unsupported on this platform")
		}
		if err != nil {
			t.Fatal(err)
		}
		if mg.NumEdges() != g.NumEdges() {
			t.Fatal("mapped graph differs from source")
		}
		if err := mg.mapped.release(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("mmapSnapshot + release: %.0f allocations", allocs)
	if allocs > mmapCeiling {
		t.Errorf("mmapSnapshot + release allocates %.0f times on a %d-edge graph, ceiling %d", allocs, g.NumEdges(), mmapCeiling)
	}
}
