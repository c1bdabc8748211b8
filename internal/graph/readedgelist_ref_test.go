package graph

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// parseVertex parses a vertex ID field, rejecting negative and oversized
// IDs (IDs are int32; the vertex count must still exceed the ID).
func parseVertex(s string) (VertexID, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		if errors.Is(err, strconv.ErrRange) {
			// Magnitude overflowed int64: the ID is out of range either way,
			// classify by sign for a precise message.
			if strings.HasPrefix(s, "-") {
				return 0, errNegativeID
			}
			return 0, errVertexTooBig
		}
		return 0, errNotInteger
	}
	if v < 0 {
		return 0, errNegativeID
	}
	if v > maxVertexID {
		return 0, errVertexTooBig
	}
	return VertexID(v), nil
}

// ReadEdgeList parses the format produced by WriteEdgeList. Lines starting
// with '#' other than the vertex-count header are ignored, as are blank
// lines. A "# vertices <n>" header may appear anywhere in the file and is
// always honoured; repeated headers must agree (a conflicting later header
// is a positional error, never silently preferred or ignored). If no
// header is present the vertex count is inferred as max(vertex ID)+1.
//
// Malformed input — negative or oversized vertex IDs, NaN/±Inf weights,
// non-numeric fields, wrong field counts, oversized lines — fails with an
// error naming the offending line.
//
// ReadEdgeList is the sequential reference implementation — scanner,
// strings.Fields, Builder, ~70k allocations on a 40k-edge file — that
// LoadEdgeList replaced on every non-test path. It stays here, unchanged,
// as what the loader's handwritten, property and fuzz differentials
// compare against: same Graph bit for bit, errors on the same inputs.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxLineBytes)
	n := int64(-1)
	var srcs, dsts []VertexID
	var weights []float32
	weighted := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) == 3 && fields[1] == "vertices" {
				v, err := parseHeaderCount(fields[2])
				if err != nil {
					return nil, fmt.Errorf("graph: line %d: bad vertex count %q", lineNo, fields[2])
				}
				if n >= 0 && n != v {
					return nil, fmt.Errorf("graph: line %d: vertex count header %d conflicts with earlier header %d", lineNo, v, n)
				}
				n = v
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 && len(fields) != 3 {
			return nil, fmt.Errorf("graph: line %d: expected 'src dst [weight]', got %q", lineNo, line)
		}
		src, err := parseVertex(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source %q: %v", lineNo, fields[0], err)
		}
		dst, err := parseVertex(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad destination %q: %v", lineNo, fields[1], err)
		}
		srcs = append(srcs, src)
		dsts = append(dsts, dst)
		if len(fields) == 3 {
			w, err := parseWeight(fields[2])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad weight %q: %v", lineNo, fields[2], err)
			}
			for len(weights) < len(srcs)-1 {
				weights = append(weights, 1)
			}
			weights = append(weights, w)
			weighted = true
		} else if weighted {
			weights = append(weights, 1)
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("graph: line %d: line exceeds %d bytes", lineNo+1, maxLineBytes)
		}
		return nil, err
	}
	if n < 0 {
		maxID := -1
		for i := range srcs {
			if int(srcs[i]) > maxID {
				maxID = int(srcs[i])
			}
			if int(dsts[i]) > maxID {
				maxID = int(dsts[i])
			}
		}
		n = int64(maxID + 1)
	}
	b := NewBuilder(int(n))
	for i := range srcs {
		if weighted {
			b.AddWeightedEdge(srcs[i], dsts[i], weights[i])
		} else {
			b.AddEdge(srcs[i], dsts[i])
		}
	}
	return b.Build()
}
