package graph

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
)

// referenceInducedSubgraph is the pre-rewrite Builder-based implementation,
// kept verbatim as the executable specification the direct-CSR fast path
// must match bit for bit.
func referenceInducedSubgraph(g *Graph, vertices []VertexID) (*Graph, []VertexID, error) {
	n := g.NumVertices()
	toSample := make([]VertexID, n)
	for i := range toSample {
		toSample[i] = -1
	}
	toOriginal := make([]VertexID, len(vertices))
	for i, v := range vertices {
		if int(v) < 0 || int(v) >= n {
			return nil, nil, fmt.Errorf("vertex %d out of range (n=%d)", v, n)
		}
		if toSample[v] != -1 {
			return nil, nil, fmt.Errorf("duplicate vertex %d", v)
		}
		toSample[v] = VertexID(i)
		toOriginal[i] = v
	}
	b := NewBuilder(len(vertices))
	for i, orig := range toOriginal {
		ws := g.OutWeights(orig)
		for j, dst := range g.OutNeighbors(orig) {
			sd := toSample[dst]
			if sd < 0 {
				continue
			}
			if ws != nil {
				b.AddWeightedEdge(VertexID(i), sd, ws[j])
			} else {
				b.AddEdge(VertexID(i), sd)
			}
		}
	}
	sub, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return sub, toOriginal, nil
}

// randomTestGraph builds a random graph through the Builder: random edges
// with duplicates and self-loops in the input (deduplicated/dropped by
// Build), optionally weighted, so the subgraph property test exercises
// every code path of the fast CSR induction.
func randomTestGraph(rng *rand.Rand, weighted bool) *Graph {
	n := 1 + rng.IntN(60)
	b := NewBuilder(n)
	m := rng.IntN(4 * n)
	for i := 0; i < m; i++ {
		src := VertexID(rng.IntN(n))
		dst := VertexID(rng.IntN(n))
		if weighted {
			b.AddWeightedEdge(src, dst, float32(rng.IntN(16)))
		} else {
			b.AddEdge(src, dst)
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// requireSameGraph asserts two graphs are structurally identical: same
// vertex count, same sorted adjacency per vertex, same weights.
func requireSameGraph(t *testing.T, got, want *Graph, label string) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() {
		t.Fatalf("%s: %d vertices, reference has %d", label, got.NumVertices(), want.NumVertices())
	}
	if got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: %d edges, reference has %d", label, got.NumEdges(), want.NumEdges())
	}
	if got.HasWeights() != want.HasWeights() {
		t.Fatalf("%s: HasWeights %v, reference %v", label, got.HasWeights(), want.HasWeights())
	}
	for v := 0; v < want.NumVertices(); v++ {
		id := VertexID(v)
		ga, wa := got.OutNeighbors(id), want.OutNeighbors(id)
		if len(ga) != len(wa) {
			t.Fatalf("%s: vertex %d has %d out-edges, reference has %d", label, v, len(ga), len(wa))
		}
		for i := range wa {
			if ga[i] != wa[i] {
				t.Fatalf("%s: vertex %d edge %d: %d, reference %d", label, v, i, ga[i], wa[i])
			}
		}
		gw, ww := got.OutWeights(id), want.OutWeights(id)
		for i := range ww {
			if gw[i] != ww[i] {
				t.Fatalf("%s: vertex %d weight %d: %v, reference %v", label, v, i, gw[i], ww[i])
			}
		}
	}
}

// TestInducedSubgraphMatchesBuilderReference drives the direct-CSR
// induction against the Builder-based reference on hundreds of random
// graphs (weighted and unweighted) and random vertex subsets in random
// order, asserting bit-identical subgraphs and mappings.
func TestInducedSubgraphMatchesBuilderReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(2024, 7))
	for trial := 0; trial < 300; trial++ {
		weighted := trial%2 == 1
		g := randomTestGraph(rng, weighted)
		n := g.NumVertices()
		k := 1 + rng.IntN(n)
		verts := make([]VertexID, 0, k)
		for _, p := range rng.Perm(n)[:k] {
			verts = append(verts, VertexID(p))
		}
		got, mapping, err := InducedSubgraph(g, verts)
		if err != nil {
			t.Fatalf("trial %d: InducedSubgraph: %v", trial, err)
		}
		want, refOriginal, err := referenceInducedSubgraph(g, verts)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		requireSameGraph(t, got, want, fmt.Sprintf("trial %d (weighted=%v)", trial, weighted))
		if !slices.Equal(mapping.ToOriginal, refOriginal) {
			t.Fatalf("trial %d: ToOriginal = %v, reference %v", trial, mapping.ToOriginal, refOriginal)
		}
	}
}

// FuzzInducedSubgraph cross-checks the direct-CSR induction against the
// reference on fuzz-chosen graph shapes and subset selectors.
func FuzzInducedSubgraph(f *testing.F) {
	f.Add(uint64(1), uint64(3), false)
	f.Add(uint64(42), uint64(9), true)
	f.Add(uint64(7), uint64(0), false)
	f.Fuzz(func(t *testing.T, graphSeed, pickSeed uint64, weighted bool) {
		rng := rand.New(rand.NewPCG(graphSeed, graphSeed^0xabcdef))
		g := randomTestGraph(rng, weighted)
		n := g.NumVertices()
		pick := rand.New(rand.NewPCG(pickSeed, pickSeed^0x123456))
		k := 1 + pick.IntN(n)
		verts := make([]VertexID, 0, k)
		for _, p := range pick.Perm(n)[:k] {
			verts = append(verts, VertexID(p))
		}
		got, _, err := InducedSubgraph(g, verts)
		if err != nil {
			t.Fatalf("InducedSubgraph: %v", err)
		}
		want, _, err := referenceInducedSubgraph(g, verts)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		requireSameGraph(t, got, want, "fuzz")
	})
}

// TestVerticesByOutDegreeMatchesSortReference asserts the counting-sort
// degree ordering reproduces the comparison-sort total order (out-degree
// descending, vertex ID ascending — the BRJ seed order) exactly, on random
// graphs with heavy degree ties.
func TestVerticesByOutDegreeMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(99, 101))
	for trial := 0; trial < 200; trial++ {
		g := randomTestGraph(rng, false)
		n := g.NumVertices()
		ref := make([]VertexID, n)
		for i := range ref {
			ref[i] = VertexID(i)
		}
		sort.Slice(ref, func(i, j int) bool {
			di, dj := g.OutDegree(ref[i]), g.OutDegree(ref[j])
			if di != dj {
				return di > dj
			}
			return ref[i] < ref[j]
		})
		got := g.VerticesByOutDegree()
		if len(got) != n {
			t.Fatalf("trial %d: order has %d entries, want %d", trial, len(got), n)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("trial %d: position %d: vertex %d (deg %d), reference %d (deg %d)",
					trial, i, got[i], g.OutDegree(got[i]), ref[i], g.OutDegree(ref[i]))
			}
		}
	}
}

// outDegrees computes a fresh per-vertex out-degree slice straight from
// the adjacency — the reference the memoized artifacts are held to — and
// referenceInDegrees reads in-degrees off the transpose, not off the
// counting pass SortedInDegrees uses.
func outDegrees(g *Graph) []int {
	deg := make([]int, g.NumVertices())
	for v := range deg {
		deg[v] = g.OutDegree(VertexID(v))
	}
	return deg
}

func referenceInDegrees(g *Graph) []int { return outDegrees(g.Reverse()) }

// TestDegreeArtifactsConsistency checks the memoized degree artifacts
// against directly computed values.
func TestDegreeArtifactsConsistency(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 50; trial++ {
		g := randomTestGraph(rng, false)
		g.EnsureDegreeArtifacts() // the warm-ahead entry point the service uses
		degs := outDegrees(g)
		cached := g.CachedOutDegrees()
		maxDeg := 0
		for v, d := range degs {
			if cached[v] != d {
				t.Fatalf("trial %d: CachedOutDegrees[%d] = %d, want %d", trial, v, cached[v], d)
			}
			if d > maxDeg {
				maxDeg = d
			}
		}
		if got := g.MaxOutDegree(); got != maxDeg {
			t.Fatalf("trial %d: MaxOutDegree = %d, want %d", trial, got, maxDeg)
		}
		sortedRef := append([]int(nil), degs...)
		sort.Ints(sortedRef)
		gotSorted := g.SortedOutDegrees()
		for i := range sortedRef {
			if gotSorted[i] != sortedRef[i] {
				t.Fatalf("trial %d: SortedOutDegrees[%d] = %d, want %d", trial, i, gotSorted[i], sortedRef[i])
			}
		}
		inRef := referenceInDegrees(g)
		sort.Ints(inRef)
		gotIn := g.SortedInDegrees()
		if len(gotIn) != len(inRef) {
			t.Fatalf("trial %d: SortedInDegrees has %d entries, want %d", trial, len(gotIn), len(inRef))
		}
		for i := range inRef {
			if gotIn[i] != inRef[i] {
				t.Fatalf("trial %d: SortedInDegrees[%d] = %d, want %d", trial, i, gotIn[i], inRef[i])
			}
		}
	}
}

// TestSortPairsStableLargeWeightedBuckets holds the one weighted bucket
// sort to a stable reference on large buckets with forced duplicate keys:
// destinations come out ascending, and each run of equal destinations
// keeps its weights in their incoming order. One scratch serves every
// trial, as it serves every bucket of a Build or an induction.
func TestSortPairsStableLargeWeightedBuckets(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 17))
	var scratch []dstWeight
	for trial := 0; trial < 100; trial++ {
		k := 13 + rng.IntN(2000)
		dsts := make([]VertexID, k)
		ws := make([]float32, k)
		want := make([]dstWeight, k)
		for i := range dsts {
			dsts[i] = VertexID(rng.IntN(k / 2)) // force duplicate keys
			ws[i] = float32(rng.IntN(32))
			want[i] = dstWeight{dsts[i], ws[i]}
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].d < want[j].d })
		scratch = sortPairsStable(dsts, ws, scratch)
		for i := range want {
			if got := (dstWeight{dsts[i], ws[i]}); got != want[i] {
				t.Fatalf("trial %d: position %d holds %v, stable reference %v", trial, i, got, want[i])
			}
		}
	}
}

// TestBuilderWeightedDedupKeepsFirstAddedWeight pins Build's documented
// dedup contract for parallel weighted edges — "keeping the first weight
// seen" — on a bucket large enough that an unstable sort would pick an
// arbitrary survivor.
func TestBuilderWeightedDedupKeepsFirstAddedWeight(t *testing.T) {
	b := NewBuilder(30)
	const edges = 25 // keys 0..5 repeating
	want := map[VertexID]float32{}
	for i := 0; i < edges; i++ {
		dst := VertexID(i % 6)
		b.AddWeightedEdge(10, dst, float32(i))
		if _, ok := want[dst]; !ok {
			want[dst] = float32(i)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	adj, ws := g.OutNeighbors(10), g.OutWeights(10)
	if len(adj) != len(want) {
		t.Fatalf("got %d deduped edges, want %d", len(adj), len(want))
	}
	for k, dst := range adj {
		if ws[k] != want[dst] {
			t.Errorf("edge (10,%d): kept weight %v, want first-added %v", dst, ws[k], want[dst])
		}
	}
}
