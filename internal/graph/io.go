package graph

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
)

// maxLineBytes bounds one edge-list line. Lines at or past this length are
// rejected with a positional error (it is also the buffer of the
// sequential reference parser the loader's tests compare against, so the
// two fail on exactly the same inputs).
const maxLineBytes = 1 << 20

// maxVertexCount is the largest legal "# vertices" header value: vertex
// IDs are int32, so a graph holds at most MaxInt32 vertices.
const maxVertexCount = math.MaxInt32

// maxVertexID is the largest legal vertex ID (the count maxVertexCount
// must still exceed the ID).
const maxVertexID = math.MaxInt32 - 1

// Validation errors of the text parser. The chunk parser and its
// test-only sequential reference classify malformed fields into these, so
// the two accept and reject identical inputs.
var (
	errNotInteger    = errors.New("not an integer")
	errNegativeID    = errors.New("vertex IDs must be non-negative")
	errVertexTooBig  = fmt.Errorf("vertex ID exceeds %d", int64(maxVertexID))
	errWeightFinite  = errors.New("weight must be finite (no NaN or Inf)")
	errHeaderPattern = errors.New("bad vertex count")
)

// WriteEdgeList writes g as a plain-text edge list: one "src dst [weight]"
// line per edge, preceded by a header line "# vertices <n>". The format
// round-trips through LoadEdgeList.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# vertices %d\n", g.NumVertices()); err != nil {
		return err
	}
	for v := 0; v < g.NumVertices(); v++ {
		ws := g.OutWeights(VertexID(v))
		for i, dst := range g.OutNeighbors(VertexID(v)) {
			var err error
			if ws != nil {
				_, err = fmt.Fprintf(bw, "%d %d %g\n", v, dst, ws[i])
			} else {
				_, err = fmt.Fprintf(bw, "%d %d\n", v, dst)
			}
			if err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// parseWeight parses an edge weight field, rejecting NaN and ±Inf: a
// non-finite weight silently poisons every downstream aggregate (degree-
// weighted features, message-byte models), so it is a parse error, not
// data.
func parseWeight(s string) (float32, error) {
	w, err := strconv.ParseFloat(s, 32)
	if err != nil {
		if errors.Is(err, strconv.ErrRange) {
			return 0, errWeightFinite
		}
		return 0, errors.New("not a number")
	}
	if math.IsNaN(w) || math.IsInf(w, 0) {
		return 0, errWeightFinite
	}
	return float32(w), nil
}

// parseHeaderCount parses the <n> of a "# vertices <n>" header.
func parseHeaderCount(s string) (int64, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil || v < 0 || v > maxVertexCount {
		return 0, errHeaderPattern
	}
	return v, nil
}
