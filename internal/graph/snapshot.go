// Binary CSR snapshots: a versioned on-disk form of a built Graph that
// reloads in O(bytes) with no text parsing, no Builder pass and no
// per-bucket sorting — the CSR arrays land in memory exactly as they were
// written. Loading a real dataset therefore pays the text parse once
// (cmd/graphgen -convert, or the service registry's first load) and every
// later load is a few large reads plus a checksum.
//
// Wire format, all integers little-endian:
//
//	[0:4)    magic "PCSR"
//	[4:6)    version, currently 1
//	[6:8)    flags; bit 0 = weighted, all other bits must be zero
//	[8:16)   n, the vertex count
//	[16:24)  m, the edge count
//	[24:...) offsets, (n+1) × int64
//	[.....)  edges, m × int32 (per-bucket sorted vertex IDs)
//	[.....)  weights, m × float32 raw bits (present iff the weighted flag)
//	[-8:)    XXH64 (seed 0) of every preceding byte
//
// The encoding is canonical: a valid snapshot re-encodes to the identical
// byte sequence, which FuzzReadSnapshot asserts. ReadSnapshotFile verifies
// the checksum and every structural invariant a Graph promises (monotone
// offsets, in-range and strictly-sorted adjacency), so a corrupted or
// adversarial file fails loudly instead of producing a Graph that
// violates CSR invariants deep inside sampling or the BSP engine.
package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"predict/internal/atomicfile"
	"predict/internal/faultinject"
)

var snapshotMagic = [4]byte{'P', 'C', 'S', 'R'}

const (
	snapshotVersion      = 1
	snapshotFlagWeighted = 1 << 0
	snapshotHeaderLen    = 24
	snapshotTrailerLen   = 8
	// snapshotMaxEdges keeps the size arithmetic below far from uint64
	// overflow; it is ~7 orders of magnitude above any graph this system
	// handles.
	snapshotMaxEdges = 1 << 56
)

// WriteSnapshot writes g in the binary CSR snapshot format. The stream is
// hashed as it is written, so no second pass over the arrays is needed.
func WriteSnapshot(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 256<<10)
	h := newXXHash64(0)
	hw := io.MultiWriter(bw, h)

	offsets := g.offsets
	if len(offsets) == 0 {
		offsets = []int64{0} // canonical empty graph
	}
	n := len(offsets) - 1
	m := len(g.edges)

	var hdr [snapshotHeaderLen]byte
	copy(hdr[0:4], snapshotMagic[:])
	binary.LittleEndian.PutUint16(hdr[4:6], snapshotVersion)
	var flags uint16
	if g.weights != nil {
		flags |= snapshotFlagWeighted
	}
	binary.LittleEndian.PutUint16(hdr[6:8], flags)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(n))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(m))
	if _, err := hw.Write(hdr[:]); err != nil {
		return err
	}

	// Encode the arrays through one fixed scratch so memory stays O(1)
	// regardless of graph size.
	buf := make([]byte, 64<<10)
	if err := writeInt64s(hw, buf, offsets); err != nil {
		return err
	}
	if err := writeVertexIDs(hw, buf, g.edges); err != nil {
		return err
	}
	if g.weights != nil {
		if err := writeFloat32s(hw, buf, g.weights); err != nil {
			return err
		}
	}

	var tr [snapshotTrailerLen]byte
	binary.LittleEndian.PutUint64(tr[:], h.Sum64())
	if _, err := bw.Write(tr[:]); err != nil {
		return err
	}
	return bw.Flush()
}

func writeInt64s(w io.Writer, buf []byte, vals []int64) error {
	for len(vals) > 0 {
		k := min(len(buf)/8, len(vals))
		for i := 0; i < k; i++ {
			binary.LittleEndian.PutUint64(buf[i*8:], uint64(vals[i]))
		}
		if _, err := w.Write(buf[:k*8]); err != nil {
			return err
		}
		vals = vals[k:]
	}
	return nil
}

func writeVertexIDs(w io.Writer, buf []byte, vals []VertexID) error {
	for len(vals) > 0 {
		k := min(len(buf)/4, len(vals))
		for i := 0; i < k; i++ {
			binary.LittleEndian.PutUint32(buf[i*4:], uint32(vals[i]))
		}
		if _, err := w.Write(buf[:k*4]); err != nil {
			return err
		}
		vals = vals[k:]
	}
	return nil
}

func writeFloat32s(w io.Writer, buf []byte, vals []float32) error {
	for len(vals) > 0 {
		k := min(len(buf)/4, len(vals))
		for i := 0; i < k; i++ {
			// Raw bits, so every float32 payload (including any NaN bit
			// pattern a caller built a graph with) round-trips exactly.
			binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(vals[i]))
		}
		if _, err := w.Write(buf[:k*4]); err != nil {
			return err
		}
		vals = vals[k:]
	}
	return nil
}

// snapshotFrame is a validated snapshot's shape: the counts and the byte
// region holding the arrays (offsets, then edges, then optional weights).
// parseSnapshotFrame produces it after the header, size and checksum
// checks have all passed; the structural CSR invariants are then checked
// by validateSnapshotCSR once the arrays exist (copied by decodeSnapshot,
// aliased in place by mmapSnapshot — both readers run the identical frame
// and structural checks, so they accept and reject exactly the same
// inputs).
type snapshotFrame struct {
	n        uint64
	m        uint64
	weighted bool
	body     []byte // the array region: data[header : len-trailer]
}

// parseSnapshotFrame validates everything about a snapshot that does not
// require materialized arrays: magic, version, flags, plausible counts,
// exact file size and the trailing checksum.
func parseSnapshotFrame(data []byte) (snapshotFrame, error) {
	var fr snapshotFrame
	if len(data) < snapshotHeaderLen+snapshotTrailerLen {
		return fr, fmt.Errorf("graph: snapshot: truncated file (%d bytes)", len(data))
	}
	if !bytes.Equal(data[0:4], snapshotMagic[:]) {
		return fr, fmt.Errorf("graph: snapshot: bad magic %q", data[0:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != snapshotVersion {
		return fr, fmt.Errorf("graph: snapshot: unsupported version %d (want %d)", v, snapshotVersion)
	}
	flags := binary.LittleEndian.Uint16(data[6:8])
	if flags&^snapshotFlagWeighted != 0 {
		return fr, fmt.Errorf("graph: snapshot: unknown flags %#x", flags)
	}
	fr.weighted = flags&snapshotFlagWeighted != 0
	fr.n = binary.LittleEndian.Uint64(data[8:16])
	fr.m = binary.LittleEndian.Uint64(data[16:24])
	if fr.n > maxVertexCount {
		return fr, fmt.Errorf("graph: snapshot: vertex count %d exceeds %d", fr.n, int64(maxVertexCount))
	}
	if fr.m > snapshotMaxEdges {
		return fr, fmt.Errorf("graph: snapshot: implausible edge count %d", fr.m)
	}
	want := uint64(snapshotHeaderLen) + (fr.n+1)*8 + fr.m*4 + uint64(snapshotTrailerLen)
	if fr.weighted {
		want += fr.m * 4
	}
	if uint64(len(data)) != want {
		return fr, fmt.Errorf("graph: snapshot: %d bytes, want %d for n=%d m=%d", len(data), want, fr.n, fr.m)
	}

	payload := data[:len(data)-snapshotTrailerLen]
	sum := binary.LittleEndian.Uint64(data[len(data)-snapshotTrailerLen:])
	if got := xxhash64Sum(payload, 0); got != sum {
		return fr, fmt.Errorf("graph: snapshot: checksum mismatch (file %#016x, computed %#016x)", sum, got)
	}
	fr.body = payload[snapshotHeaderLen:]
	return fr, nil
}

// validateSnapshotCSR checks the structural invariants a Graph promises:
// zero-based monotone offsets ending at the edge count, every neighbor ID
// in range, every adjacency bucket strictly ascending (a built Graph's
// buckets are sorted and deduplicated).
func validateSnapshotCSR(offsets []int64, edges []VertexID, n, m uint64) error {
	if offsets[0] != 0 {
		return fmt.Errorf("graph: snapshot: offsets[0] = %d, want 0", offsets[0])
	}
	for i := uint64(1); i <= n; i++ {
		if offsets[i] < offsets[i-1] {
			return fmt.Errorf("graph: snapshot: offsets not monotone at vertex %d", i)
		}
	}
	if uint64(offsets[n]) != m {
		return fmt.Errorf("graph: snapshot: offsets end at %d, want edge count %d", offsets[n], m)
	}
	for v := uint64(0); v < n; v++ {
		prev := VertexID(-1)
		for _, dst := range edges[offsets[v]:offsets[v+1]] {
			if uint64(uint32(dst)) >= n || dst < 0 {
				return fmt.Errorf("graph: snapshot: vertex %d has out-of-range neighbor %d (n=%d)", v, dst, n)
			}
			if dst <= prev {
				return fmt.Errorf("graph: snapshot: vertex %d adjacency not strictly sorted", v)
			}
			prev = dst
		}
	}
	return nil
}

func decodeSnapshot(data []byte) (*Graph, error) {
	fr, err := parseSnapshotFrame(data)
	if err != nil {
		return nil, err
	}
	n, m, body := fr.n, fr.m, fr.body
	offsets := make([]int64, n+1)
	for i := range offsets {
		offsets[i] = int64(binary.LittleEndian.Uint64(body[i*8:]))
	}
	body = body[(n+1)*8:]
	edges := make([]VertexID, m)
	for i := range edges {
		edges[i] = VertexID(binary.LittleEndian.Uint32(body[i*4:]))
	}
	body = body[m*4:]
	if err := validateSnapshotCSR(offsets, edges, n, m); err != nil {
		return nil, err
	}
	var weights []float32
	if fr.weighted {
		weights = make([]float32, m)
		for i := range weights {
			weights[i] = math.Float32frombits(binary.LittleEndian.Uint32(body[i*4:]))
		}
	}
	return &Graph{offsets: offsets, edges: edges, weights: weights}, nil
}

// WriteSnapshotFile writes g's snapshot to path atomically
// (atomicfile.Replace), so a crash mid-write cannot leave a truncated
// snapshot behind the registry's back.
func WriteSnapshotFile(path string, g *Graph) error {
	return atomicfile.Replace(path, func(w io.Writer) error { return WriteSnapshot(w, g) }, nil)
}

// ReadSnapshotFile reads a graph written by WriteSnapshot from path,
// verifying the checksum and every CSR structural invariant before
// returning.
func ReadSnapshotFile(path string) (*Graph, error) {
	if fault := faultinject.Fire(faultinject.PointGraphReadSnapshot); fault != nil {
		fault.Sleep()
		if fault.Err != nil {
			return nil, fault.Err
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeSnapshot(data)
}
