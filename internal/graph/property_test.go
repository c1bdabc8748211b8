package graph

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// TestBuilderCSRInvariants feeds the builder random edge soups and checks
// the CSR invariants the rest of the system depends on: adjacency sorted
// strictly ascending per vertex (sorted + deduplicated), all IDs in
// range, offsets monotone.
func TestBuilderCSRInvariants(t *testing.T) {
	f := func(seed uint64, nRaw uint8, mRaw uint16) bool {
		n := int(nRaw%200) + 2
		m := int(mRaw % 2000)
		rng := rand.New(rand.NewPCG(seed, seed^77))
		b := NewBuilder(n)
		for i := 0; i < m; i++ {
			b.AddEdge(VertexID(rng.IntN(n)), VertexID(rng.IntN(n)))
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		var total int64
		for v := 0; v < n; v++ {
			adj := g.OutNeighbors(VertexID(v))
			total += int64(len(adj))
			for i, dst := range adj {
				if int(dst) < 0 || int(dst) >= n {
					return false
				}
				if int(dst) == v {
					return false // self-loop kept
				}
				if i > 0 && adj[i-1] >= dst {
					return false // unsorted or duplicate
				}
			}
		}
		return total == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestInducedSubgraphPreservesEdgesExactly checks against a brute-force
// reference: an edge is in the subgraph iff both endpoints are sampled
// and the edge is in the original.
func TestInducedSubgraphPreservesEdgesExactly(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed*3+1))
		n := rng.IntN(60) + 5
		b := NewBuilder(n)
		for i := 0; i < n*3; i++ {
			b.AddEdge(VertexID(rng.IntN(n)), VertexID(rng.IntN(n)))
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		k := rng.IntN(n-1) + 1
		perm := rng.Perm(n)
		verts := make([]VertexID, k)
		for i := 0; i < k; i++ {
			verts[i] = VertexID(perm[i])
		}
		sub, m, err := InducedSubgraph(g, verts)
		if err != nil {
			return false
		}
		// Count original edges with both endpoints sampled.
		inSample := make(map[VertexID]bool, k)
		for _, v := range verts {
			inSample[v] = true
		}
		var want int64
		for v := 0; v < n; v++ {
			if !inSample[VertexID(v)] {
				continue
			}
			for _, dst := range g.OutNeighbors(VertexID(v)) {
				if inSample[dst] {
					want++
				}
			}
		}
		if sub.NumEdges() != want {
			return false
		}
		// Every subgraph edge maps back to an original edge.
		for sv := 0; sv < sub.NumVertices(); sv++ {
			ov := m.ToOriginal[sv]
			for _, sd := range sub.OutNeighbors(VertexID(sv)) {
				if !g.HasEdge(ov, m.ToOriginal[sd]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestReverseIsInvolution checks Reverse(Reverse(g)) == g.
func TestReverseIsInvolution(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed+9))
		n := rng.IntN(50) + 2
		b := NewBuilder(n)
		for i := 0; i < n*2; i++ {
			b.AddEdge(VertexID(rng.IntN(n)), VertexID(rng.IntN(n)))
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		rr := g.Reverse().Reverse()
		if rr.NumEdges() != g.NumEdges() {
			return false
		}
		for v := 0; v < n; v++ {
			a, c := g.OutNeighbors(VertexID(v)), rr.OutNeighbors(VertexID(v))
			if len(a) != len(c) {
				return false
			}
			for i := range a {
				if a[i] != c[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestUndirectedIsSymmetric checks that the symmetric closure contains the
// reverse of every edge.
func TestUndirectedIsSymmetric(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed+13))
		n := rng.IntN(40) + 2
		b := NewBuilder(n)
		for i := 0; i < n*2; i++ {
			b.AddEdge(VertexID(rng.IntN(n)), VertexID(rng.IntN(n)))
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		u := g.Undirected()
		for v := 0; v < n; v++ {
			for _, dst := range u.OutNeighbors(VertexID(v)) {
				if !u.HasEdge(dst, VertexID(v)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestInOutDegreeSumsMatch checks sum(out-degrees) == sum(in-degrees) ==
// edge count.
func TestInOutDegreeSumsMatch(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed+21))
		n := rng.IntN(80) + 2
		b := NewBuilder(n)
		for i := 0; i < n*3; i++ {
			b.AddEdge(VertexID(rng.IntN(n)), VertexID(rng.IntN(n)))
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		var outSum, inSum int64
		for _, d := range g.CachedOutDegrees() {
			outSum += int64(d)
		}
		for _, d := range g.SortedInDegrees() {
			inSum += int64(d)
		}
		return outSum == g.NumEdges() && inSum == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
