// Parallel edge-list ingestion — the only text reader outside tests. Its
// sequential reference (ReadEdgeList: scanner, strings.Fields, Builder)
// lives in readedgelist_ref_test.go. The loader splits the input at line
// boundaries into shards, parses every shard concurrently on an
// internal/parallel pool with an allocation-lean byte-level lexer, and
// merges the per-shard triple buffers into the final CSR with the same
// two-pass direct construction the subgraph fast path uses — a global
// counting-sort scatter in shard (= file) order followed by the shared
// finishCSR bucket pass. Because the scatter visits edges in exactly the
// order the sequential parser appends them and the bucket pass is the
// same code Builder.Build runs, the loaded Graph is bit-identical to the
// reference's at any parallelism; property and fuzz tests in
// loader_test.go hold the two implementations equal.
package graph

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"unicode"
	"unicode/utf8"
	"unsafe"

	"predict/internal/faultinject"
	"predict/internal/parallel"
)

// LoadOptions configures the parallel text loader.
type LoadOptions struct {
	// Pool optionally runs the shard parses on an existing worker pool
	// (sharing its bound with other work) instead of a transient one of
	// GOMAXPROCS slots.
	Pool *parallel.Pool

	// chunkBytes overrides the shard target size; zero sizes shards
	// automatically. Tests use tiny values to force line-boundary and
	// cross-shard merge cases.
	chunkBytes int
}

// LoadEdgeList parses the WriteEdgeList text format in parallel. Lines
// starting with '#' other than the vertex-count header are ignored, as are
// blank lines. A "# vertices <n>" header may appear anywhere in the file
// and is always honoured; repeated headers must agree (a conflicting later
// header is a positional error). Without a header the vertex count is
// inferred as max(vertex ID)+1. Malformed input — negative or oversized
// vertex IDs, NaN/±Inf weights, non-numeric fields, wrong field counts,
// oversized lines — fails with an error naming the offending line.
//
// The whole input is read into memory, split into line-aligned shards,
// parsed concurrently, and merged via a direct two-pass CSR build; the
// result is bit-identical at any parallelism.
func LoadEdgeList(r io.Reader, opts LoadOptions) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return parseEdgeListBytes(data, opts)
}

// LoadFile loads a graph from disk, detecting the format: binary CSR
// snapshots (see WriteSnapshot) by their magic number, anything else as
// the plain-text edge-list format (parsed in parallel).
func LoadFile(path string, opts LoadOptions) (*Graph, error) {
	if fault := faultinject.Fire(faultinject.PointGraphLoadFile); fault != nil {
		fault.Sleep()
		if fault.Err != nil {
			return nil, fault.Err
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if bytes.HasPrefix(data, snapshotMagic[:]) {
		return decodeSnapshot(data)
	}
	return parseEdgeListBytes(data, opts)
}

// defaultChunkBytes caps the shard size: past ~1 MiB per shard, more
// shards only improve load balance.
const defaultChunkBytes = 1 << 20

// minChunkBytes floors the shard size: below ~64 KiB the per-shard
// bookkeeping outweighs the parse work.
const minChunkBytes = 64 << 10

// chunkTarget picks a shard size that gives every pool slot several
// shards to balance across, within the [min, default] band.
func chunkTarget(size, parallelism int) int {
	if parallelism < 1 {
		parallelism = 1
	}
	t := size/(8*parallelism) + 1
	if t < minChunkBytes {
		t = minChunkBytes
	}
	if t > defaultChunkBytes {
		t = defaultChunkBytes
	}
	return t
}

// splitChunks splits data into line-aligned chunks of roughly target
// bytes: every chunk except possibly the last ends with '\n', so no line
// straddles two shards.
func splitChunks(data []byte, target int) [][]byte {
	var chunks [][]byte
	for len(data) > 0 {
		if len(data) <= target {
			chunks = append(chunks, data)
			break
		}
		nl := bytes.IndexByte(data[target:], '\n')
		if nl < 0 {
			chunks = append(chunks, data)
			break
		}
		cut := target + nl + 1
		chunks = append(chunks, data[:cut])
		data = data[cut:]
	}
	return chunks
}

// parseEdgeListBytes is the in-memory core of LoadEdgeList.
func parseEdgeListBytes(data []byte, opts LoadOptions) (*Graph, error) {
	target := opts.chunkBytes
	pool := opts.Pool
	if pool == nil {
		pool = parallel.NewPool(0)
	}
	if target <= 0 {
		target = chunkTarget(len(data), pool.Size())
	}
	chunks := splitChunks(data, target)
	shards := make([]edgeShard, len(chunks))
	// Shard parse failures are not returned through ForEach: every shard
	// runs to its own first error, and the merge below reports the error
	// at the smallest file position, so the failing line is deterministic
	// at any parallelism (ForEach's first-error semantics would surface
	// whichever shard failed first in wall-clock order).
	_ = pool.ForEach(context.Background(), len(chunks), func(_ context.Context, i int) error {
		shards[i].parse(chunks[i])
		return nil
	})
	return mergeShards(shards)
}

// edgeShard is one chunk's parse output: triple buffers in chunk order
// plus the header/line bookkeeping the merge needs to reconstruct global
// line numbers and header semantics.
type edgeShard struct {
	srcs, dsts []VertexID
	weights    []float32 // nil, or up to the shard's last weighted edge; the merge reads 1 past it
	maxID      int64     // largest vertex ID in the shard; -1 if no edges
	headerN    int64     // first "# vertices" value in the shard; -1 if none
	headerLine int       // 1-based line (within the chunk) of that header
	lines      int       // lines consumed (exact when err is nil)
	err        error     // first parse error, without the line prefix
	errLine    int       // 1-based line (within the chunk) of err
}

// fail records the shard's first error; parsing stops there, matching the
// sequential parser's first-error behavior.
func (s *edgeShard) fail(line int, err error) {
	s.err = err
	s.errLine = line
}

// parse consumes one chunk. It mirrors the reference parser line for line:
// unicode-aware field splitting, the same comment/header rules, the same
// field validation — but works on byte slices with no per-line string or
// field allocations on the happy path. A line in the canonical "src dst"
// form takes parseCanonicalLine's digit lexer instead; every other line
// takes the general path below. The ID buffers are sized once from the
// chunk's line count, which bounds its edge count.
func (s *edgeShard) parse(chunk []byte) {
	s.maxID = -1
	s.headerN = -1
	lines := bytes.Count(chunk, []byte{'\n'}) + 1
	s.srcs = make([]VertexID, 0, lines)
	s.dsts = make([]VertexID, 0, lines)
	var fields [4][]byte
	for len(chunk) > 0 {
		s.lines++
		if src, dst, next, ok := parseCanonicalLine(chunk); ok {
			s.addEdge(src, dst)
			chunk = chunk[next:]
			continue
		}
		var line []byte
		if nl := bytes.IndexByte(chunk, '\n'); nl >= 0 {
			line = chunk[:nl]
			chunk = chunk[nl+1:]
		} else {
			line = chunk
			chunk = nil
		}
		if len(line) >= maxLineBytes {
			s.fail(s.lines, fmt.Errorf("line exceeds %d bytes", maxLineBytes))
			return
		}
		nf, ok := splitLineFields(line, &fields)
		if nf == 0 {
			continue // blank line
		}
		if fields[0][0] == '#' {
			// Comment; "# vertices <n>" (exactly three fields) is the header.
			if nf == 3 && ok && byteString(fields[1]) == "vertices" {
				v, err := parseHeaderCount(byteString(fields[2]))
				if err != nil {
					s.fail(s.lines, fmt.Errorf("bad vertex count %q", fields[2]))
					return
				}
				if s.headerN >= 0 {
					if s.headerN != v {
						s.fail(s.lines, fmt.Errorf("vertex count header %d conflicts with earlier header %d", v, s.headerN))
						return
					}
				} else {
					s.headerN = v
					s.headerLine = s.lines
				}
			}
			continue
		}
		if (nf != 2 && nf != 3) || !ok {
			s.fail(s.lines, fmt.Errorf("expected 'src dst [weight]', got %q", bytes.TrimFunc(line, unicode.IsSpace)))
			return
		}
		src, err := parseVertexBytes(fields[0])
		if err != nil {
			s.fail(s.lines, fmt.Errorf("bad source %q: %v", fields[0], err))
			return
		}
		dst, err := parseVertexBytes(fields[1])
		if err != nil {
			s.fail(s.lines, fmt.Errorf("bad destination %q: %v", fields[1], err))
			return
		}
		s.addEdge(src, dst)
		if nf == 3 {
			w, err := parseWeight(byteString(fields[2]))
			if err != nil {
				s.fail(s.lines, fmt.Errorf("bad weight %q: %v", fields[2], err))
				return
			}
			for len(s.weights) < len(s.srcs)-1 {
				s.weights = append(s.weights, 1)
			}
			s.weights = append(s.weights, w)
		}
	}
}

// addEdge appends one parsed edge to the shard's ID buffers.
func (s *edgeShard) addEdge(src, dst VertexID) {
	s.srcs = append(s.srcs, src)
	s.dsts = append(s.dsts, dst)
	if id := int64(src); id > s.maxID {
		s.maxID = id
	}
	if id := int64(dst); id > s.maxID {
		s.maxID = id
	}
}

// parseCanonicalLine reads the line at the start of chunk if it has the
// form <digits>[ \t]+<digits>[ \t\r]* followed by '\n' or the end of the
// chunk, both fields are at most 10 ASCII digits and at most maxVertexID,
// and it is shorter than maxLineBytes; next indexes past its '\n'. ok is
// false for any other line. Such a line splits into exactly those two
// fields under the general path's unicode-aware rules, and
// parseVertexBytes reads the same two IDs from them, so taking this path
// can change no result: it only skips the rune decoding and field
// bookkeeping the common line does not need.
func parseCanonicalLine(chunk []byte) (src, dst VertexID, next int, ok bool) {
	src, i, ok := leadingVertexID(chunk, 0)
	if !ok {
		return 0, 0, 0, false
	}
	j := i
	for j < len(chunk) && (chunk[j] == ' ' || chunk[j] == '\t') {
		j++
	}
	if j == i {
		return 0, 0, 0, false
	}
	dst, i, ok = leadingVertexID(chunk, j)
	if !ok {
		return 0, 0, 0, false
	}
	for ; i < len(chunk) && chunk[i] != '\n'; i++ {
		if c := chunk[i]; c != ' ' && c != '\t' && c != '\r' {
			return 0, 0, 0, false
		}
	}
	if i >= maxLineBytes {
		return 0, 0, 0, false
	}
	return src, dst, min(i+1, len(chunk)), true
}

// leadingVertexID reads the run of ASCII digits at line[i:] and returns
// its value and the index past it; ok is false for an empty run, a run of
// more than 10 digits or a value above maxVertexID.
func leadingVertexID(line []byte, i int) (VertexID, int, bool) {
	start := i
	var v uint64
	for ; i < len(line) && i-start <= 10; i++ {
		d := line[i] - '0'
		if d > 9 {
			break
		}
		v = v*10 + uint64(d)
	}
	if i == start || i-start > 10 || v > maxVertexID {
		return 0, i, false
	}
	return VertexID(v), i, true
}

// asciiSpace marks the single-byte runes unicode.IsSpace reports true for.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// splitLineFields splits line into whitespace-separated fields with
// strings.Fields semantics (any unicode.IsSpace rune separates; invalid
// UTF-8 bytes are field bytes, as in strings.Fields). It fills at most
// len(fields) entries and reports how many fields were found, capped at
// len(fields); ok is false when the line has more fields than fit.
func splitLineFields(line []byte, fields *[4][]byte) (nf int, ok bool) {
	i := 0
	for i < len(line) {
		// Skip separators.
		for i < len(line) {
			if space, size := spaceAt(line, i); space {
				i += size
			} else {
				break
			}
		}
		if i >= len(line) {
			break
		}
		// Consume one field.
		fieldStart := i
		for i < len(line) {
			if space, size := spaceAt(line, i); space {
				break
			} else {
				i += size
			}
		}
		if nf == len(fields) {
			return nf, false
		}
		fields[nf] = line[fieldStart:i]
		nf++
	}
	return nf, true
}

// spaceAt reports whether the rune at line[i:] is whitespace and how many
// bytes it spans.
func spaceAt(line []byte, i int) (space bool, size int) {
	if b := line[i]; b < utf8.RuneSelf {
		return asciiSpace[b], 1
	}
	r, size := utf8.DecodeRune(line[i:])
	return unicode.IsSpace(r), size
}

// byteString is a zero-copy string view of b for transient parsing
// (strconv does not retain its argument). The string must not outlive b.
func byteString(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// parseVertexBytes parses a vertex ID field: the grammar strconv.ParseInt
// accepts (optional sign, decimal digits), negative and oversized IDs
// rejected by class, without a string conversion.
func parseVertexBytes(b []byte) (VertexID, error) {
	if len(b) == 0 {
		return 0, errNotInteger
	}
	neg := false
	i := 0
	switch b[0] {
	case '+':
		i = 1
	case '-':
		neg = true
		i = 1
	}
	if i == len(b) {
		return 0, errNotInteger
	}
	var v int64
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			return 0, errNotInteger
		}
		v = v*10 + int64(d)
		if v > maxVertexID+1 {
			// Already out of range; keep the sign-specific class without
			// risking int64 overflow on absurdly long digit runs.
			if neg {
				return 0, errNegativeID
			}
			return 0, errVertexTooBig
		}
	}
	if neg {
		if v > 0 {
			return 0, errNegativeID
		}
		return 0, nil // "-0" parses to 0, as strconv does
	}
	if v > maxVertexID {
		return 0, errVertexTooBig
	}
	return VertexID(v), nil
}

// mergeShards combines per-shard parse output into the final Graph. It
// walks shards in file order — replaying header adoption/conflict rules
// and surfacing the earliest error with its absolute line number — then
// builds the CSR directly in two passes: a counting-sort scatter over the
// shard triples in order (exactly the edge order the reference parser
// feeds the Builder) and the shared finishCSR bucket pass.
func mergeShards(shards []edgeShard) (*Graph, error) {
	n := int64(-1)
	maxID := int64(-1)
	totalEdges := 0
	weighted := false
	base := 0 // lines before the current shard
	for i := range shards {
		s := &shards[i]
		// The shard stops at its first error, so a recorded header always
		// precedes the error line; adopt/check it first, as the sequential
		// parser would have.
		if s.headerN >= 0 {
			if n >= 0 && n != s.headerN {
				return nil, fmt.Errorf("graph: line %d: vertex count header %d conflicts with earlier header %d", base+s.headerLine, s.headerN, n)
			}
			n = s.headerN
		}
		if s.err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", base+s.errLine, s.err)
		}
		if s.maxID > maxID {
			maxID = s.maxID
		}
		totalEdges += len(s.srcs)
		weighted = weighted || s.weights != nil
		base += s.lines
	}
	if n < 0 {
		n = maxID + 1
	}

	// Pass 1: count per-source bucket sizes, validating IDs against the
	// (possibly header-declared) vertex count with the Builder's error
	// wording and global edge numbering.
	offsets := make([]int64, n+1)
	edgeNo := 0
	for i := range shards {
		s := &shards[i]
		for j := range s.srcs {
			if int64(s.srcs[j]) >= n {
				return nil, fmt.Errorf("graph: edge %d has out-of-range source %d (n=%d)", edgeNo, s.srcs[j], n)
			}
			if int64(s.dsts[j]) >= n {
				return nil, fmt.Errorf("graph: edge %d has out-of-range destination %d (n=%d)", edgeNo, s.dsts[j], n)
			}
			offsets[s.srcs[j]+1]++
			edgeNo++
		}
	}
	for i := int64(1); i <= n; i++ {
		offsets[i] += offsets[i-1]
	}

	// Pass 2: scatter destinations (and weights) into their buckets in
	// shard order. Shards concatenated in order are the sequential edge
	// order, and the scatter preserves in-bucket arrival order, so the
	// buckets handed to finishCSR match Builder.Build's exactly.
	edges := make([]VertexID, totalEdges)
	var weights []float32
	if weighted {
		weights = make([]float32, totalEdges)
	}
	cursor := make([]int64, n)
	copy(cursor, offsets[:n])
	for i := range shards {
		s := &shards[i]
		for j, src := range s.srcs {
			pos := cursor[src]
			cursor[src]++
			edges[pos] = s.dsts[j]
			if weighted {
				w := float32(1)
				if j < len(s.weights) {
					w = s.weights[j]
				}
				weights[pos] = w
			}
		}
	}
	return finishCSR(int(n), offsets, edges, weights), nil
}
