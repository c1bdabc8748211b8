package graph

// Per-graph derived artifacts, built lazily — and concurrency-safely — the
// first time any consumer asks, then shared read-only by every subsequent
// consumer. The sampling→subgraph pipeline re-runs on the *same* base graph
// once per training ratio (and once per cold fit on a cached service
// graph), so everything here used to be recomputed per call: the BRJ seed
// ordering paid an O(n log n) sort.Slice per Sample, and the fidelity and
// property measurements re-derived and re-sorted full degree sequences per
// call. A Graph is immutable once built, which makes all of these pure
// functions of the graph, remembered on it through its memo (derived).
type degreeArtifacts struct {
	// outDegrees[v] is v's out-degree. Shared; callers must not modify.
	outDegrees []int
	// sortedOut is the out-degree sequence in ascending order (the form
	// KS-statistics and degree stats consume). Shared; do not modify.
	sortedOut []int
	// maxOut is the largest out-degree.
	maxOut int
	// byOutDegreeDesc holds all vertex IDs ordered by out-degree
	// descending, ties broken by ascending ID — the BRJ seed total order.
	// Shared; callers must not modify.
	byOutDegreeDesc []VertexID
}

// EnsureDegreeArtifacts materializes the degree artifacts if they have not
// been built yet. Callers that load or generate a graph ahead of serving
// (the prediction service's graph cache) warm the artifacts here so the
// first cold fit's sampling pipelines find the BRJ seed ordering ready
// instead of paying the build inside the request path. Safe for
// concurrent use.
func (g *Graph) EnsureDegreeArtifacts() {
	g.ensureDegreeArtifacts()
}

// ensureDegreeArtifacts returns the degree artifacts, built once per
// graph by buildDegreeArtifacts.
func (g *Graph) ensureDegreeArtifacts() *degreeArtifacts {
	return derived(g, degreeArtifactsKey, g.buildDegreeArtifacts)
}

// buildDegreeArtifacts builds the degree artifacts. The ordering is
// produced by a counting sort over degrees (O(n + maxDeg)) that reproduces
// the comparison sort's total order bit-exactly: the comparator (degree
// desc, ID asc) is a strict total order, so any correct sort yields the
// same permutation. Placing ascending IDs into descending-degree buckets
// gives exactly that permutation without the O(n log n) comparison sort
// the sampler used to pay per call.
func (g *Graph) buildDegreeArtifacts() *degreeArtifacts {
	n := g.NumVertices()
	a := &degreeArtifacts{
		outDegrees:      make([]int, n),
		byOutDegreeDesc: make([]VertexID, n),
	}
	maxDeg := 0
	for v := 0; v < n; v++ {
		d := g.OutDegree(VertexID(v))
		a.outDegrees[v] = d
		if d > maxDeg {
			maxDeg = d
		}
	}
	a.maxOut = maxDeg
	if n == 0 {
		return a
	}
	// Histogram of degrees, then two scans: one building the ascending
	// sorted degree sequence directly from the histogram, one scattering
	// ascending vertex IDs to descending-degree positions.
	counts := make([]int, maxDeg+1)
	for _, d := range a.outDegrees {
		counts[d]++
	}
	a.sortedOut = sortedFromCounts(counts, n)
	// cursor[d] = first position of degree d in the descending order.
	cursor := make([]int, maxDeg+1)
	pos := 0
	for d := maxDeg; d >= 0; d-- {
		cursor[d] = pos
		pos += counts[d]
	}
	for v := 0; v < n; v++ {
		d := a.outDegrees[v]
		a.byOutDegreeDesc[cursor[d]] = VertexID(v)
		cursor[d]++
	}
	return a
}

// CachedOutDegrees returns the memoized out-degree slice indexed by vertex.
// The slice is shared: callers must not modify it.
func (g *Graph) CachedOutDegrees() []int {
	return g.ensureDegreeArtifacts().outDegrees
}

// SortedOutDegrees returns the memoized ascending out-degree sequence (the
// form KolmogorovSmirnovSorted and degree statistics consume). The slice is
// shared: callers must not modify it.
func (g *Graph) SortedOutDegrees() []int {
	return g.ensureDegreeArtifacts().sortedOut
}

// VerticesByOutDegree returns all vertex IDs ordered by out-degree
// descending, ties broken by ascending ID — the total order BRJ draws its
// restart seeds from (a prefix of this slice). Built once per graph by
// counting sort; the slice is shared and callers must not modify it.
func (g *Graph) VerticesByOutDegree() []VertexID {
	return g.ensureDegreeArtifacts().byOutDegreeDesc
}

// SortedInDegrees returns the memoized ascending in-degree sequence. The
// slice is shared: callers must not modify it.
func (g *Graph) SortedInDegrees() []int {
	return derived(g, sortedInDegreesKey, func() []int {
		counts := []int{0}
		for _, d := range g.inDegrees() {
			for d >= len(counts) {
				counts = append(counts, 0)
			}
			counts[d]++
		}
		return sortedFromCounts(counts, g.NumVertices())
	})
}

// sortedFromCounts expands a degree histogram into the ascending degree
// sequence of n entries.
func sortedFromCounts(counts []int, n int) []int {
	sorted := make([]int, 0, n)
	for d, c := range counts {
		for i := 0; i < c; i++ {
			sorted = append(sorted, d)
		}
	}
	return sorted
}
