// mmap-backed zero-copy snapshot loading.
//
// mmapSnapshot maps a PCSR snapshot file read-only and builds a Graph
// whose CSR slices alias the mapped pages directly: no array copies, no
// per-element decode, O(1) heap allocation regardless of graph size, and
// the kernel page cache shares one physical copy of the file across every
// process that maps it. Validation is NOT skipped — the mmap reader runs
// the same frame (header/size/checksum) and structural CSR checks as
// ReadSnapshotFile, so the two readers accept and reject exactly the same
// inputs (FuzzMmapSnapshot pins this). The checks stream through the
// mapped pages without allocating, which also conveniently pre-faults the
// file sequentially.
//
// Lifetime model: the Graph holds a reference to its mapped region, and a
// finalizer unmaps the region once it becomes unreachable, so a live Graph
// always keeps its pages mapped — it is impossible to unmap a graph the GC
// can still see. Nothing outside this package releases a mapping early.
//
// Mutation of an mmap'd graph's CSR arrays is forbidden and enforced: the
// pages are mapped PROT_READ, so a stray write faults instead of silently
// corrupting the on-disk snapshot for every other process mapping it.
// Lazily built derived state (reverse adjacency, degree artifacts) lives
// on the ordinary heap and works as usual.
//
// Fallback matrix: aliasing requires a little-endian host (the wire
// format is little-endian) and an OS with mmap. On other configurations
// mmapSnapshot returns ErrMmapUnsupported and OpenSnapshot falls back to
// the copy-in ReadSnapshotFile, which works everywhere.
package graph

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"unsafe"

	"predict/internal/faultinject"
)

// ErrMmapUnsupported reports that zero-copy snapshot mapping is not
// available on this platform (no mmap, or a big-endian host that cannot
// alias the little-endian wire format). Callers should fall back to the
// copy-in ReadSnapshotFile.
var ErrMmapUnsupported = errors.New("graph: mmap snapshots unsupported on this platform")

// hostLittleEndian reports whether the host stores integers little-endian,
// the precondition for aliasing the wire format in place.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// mmapRegion is one mapped snapshot file. The Graph built over it keeps a
// reference, so the region outlives every reachable graph; the finalizer
// set at map time unmaps once both the region and its graph are garbage.
type mmapRegion struct {
	data   []byte
	closed atomic.Bool
}

// release unmaps the region exactly once (an explicit release and the GC
// finalizer race benignly through the atomic). After an explicit release
// every accessor on the graph reads unmapped memory and faults.
func (r *mmapRegion) release() error {
	if r == nil || !r.closed.CompareAndSwap(false, true) {
		return nil
	}
	data := r.data
	r.data = nil
	return munmapFile(data)
}

// mmapSnapshot maps the snapshot at path read-only and returns a graph
// aliasing the mapped CSR arrays. The file is fully validated (checksum
// and structural invariants) exactly like ReadSnapshotFile; only the
// array materialization differs. Returns ErrMmapUnsupported where
// aliasing is impossible — OpenSnapshot then falls back to
// ReadSnapshotFile.
func mmapSnapshot(path string) (*Graph, error) {
	if !mmapSupported || !hostLittleEndian {
		return nil, ErrMmapUnsupported
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size < snapshotHeaderLen+snapshotTrailerLen {
		// Too small to even mmap meaningfully (and mmap of an empty file
		// fails outright); report it through the shared frame check so the
		// error matches ReadSnapshotFile byte for byte.
		_, err := parseSnapshotFrame(make([]byte, size))
		return nil, err
	}
	data, err := mmapFile(f, size)
	if err != nil {
		return nil, fmt.Errorf("graph: snapshot: mmap %s: %w", path, err)
	}
	region := &mmapRegion{data: data}
	g, err := aliasSnapshot(data, region)
	if err != nil {
		region.release()
		return nil, err
	}
	runtime.SetFinalizer(region, func(r *mmapRegion) { r.release() })
	return g, nil
}

// aliasSnapshot validates data (same frame + structural checks as the
// copy-in reader) and builds a Graph whose slices alias it in place.
func aliasSnapshot(data []byte, region *mmapRegion) (*Graph, error) {
	fr, err := parseSnapshotFrame(data)
	if err != nil {
		return nil, err
	}
	body := fr.body
	// The mapping is page-aligned and the header is 24 bytes, so the
	// offsets array is 8-byte aligned and the edge/weight arrays 4-byte
	// aligned — the alignment unsafe.Slice requires.
	offsets := unsafe.Slice((*int64)(unsafe.Pointer(&body[0])), fr.n+1)
	body = body[(fr.n+1)*8:]
	var edges []VertexID
	if fr.m > 0 {
		edges = unsafe.Slice((*VertexID)(unsafe.Pointer(&body[0])), fr.m)
		body = body[fr.m*4:]
	}
	if err := validateSnapshotCSR(offsets, edges, fr.n, fr.m); err != nil {
		return nil, err
	}
	var weights []float32
	if fr.weighted {
		if fr.m > 0 {
			weights = unsafe.Slice((*float32)(unsafe.Pointer(&body[0])), fr.m)
		} else {
			// A weighted graph with zero edges still reports HasWeights,
			// matching the copy-in reader's empty non-nil slice.
			weights = []float32{}
		}
	}
	return &Graph{offsets: offsets, edges: edges, weights: weights, mapped: region}, nil
}

// OpenSnapshot loads the snapshot at path zero-copy when the platform
// supports it and falls back to the copy-in reader otherwise. The boolean
// reports whether the graph aliases a mapping; either way the caller owns
// an ordinary Graph with nothing to release.
func OpenSnapshot(path string) (g *Graph, mapped bool, err error) {
	if fault := faultinject.Fire(faultinject.PointGraphOpenSnapshot); fault != nil {
		fault.Sleep()
		if fault.Err != nil {
			return nil, false, fault.Err
		}
	}
	g, err = mmapSnapshot(path)
	if err == nil {
		return g, true, nil
	}
	if !errors.Is(err, ErrMmapUnsupported) {
		return nil, false, err
	}
	g, err = ReadSnapshotFile(path)
	return g, false, err
}
