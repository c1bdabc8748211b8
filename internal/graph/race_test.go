package graph

import (
	"slices"
	"sort"
	"sync"
	"testing"
)

// TestSortedInDegreesConcurrent is the -race regression for the lazily
// built in-degree sequence: parallel fit pipelines share the base graph
// and may ask for it (sampling fidelity, property measurements) from many
// goroutines at once. Every caller must get the one shared slice, and it
// must be the transpose's degrees in ascending order.
func TestSortedInDegreesConcurrent(t *testing.T) {
	const n = 500
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(VertexID(i), VertexID((i+1)%n))
		b.AddEdge(VertexID(i), VertexID((i*13+7)%n))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 16
	got := make([][]int, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			defer wg.Done()
			got[i] = g.SortedInDegrees()
		}(i)
	}
	wg.Wait()

	want := referenceInDegrees(g)
	sort.Ints(want)
	for i, d := range got {
		if &d[0] != &got[0][0] {
			t.Fatalf("goroutine %d got its own in-degree sequence", i)
		}
	}
	if !slices.Equal(got[0], want) {
		t.Fatalf("SortedInDegrees = %v, want %v", got[0], want)
	}
}

// TestMemoizedCriticalShareConcurrent is the -race regression for the
// per-graph share memo: concurrent what-if predictions on one cached
// graph race first touches and hits over a few worker counts. Every call
// must return the pure function's value, and once a count is remembered
// it is never computed again.
func TestMemoizedCriticalShareConcurrent(t *testing.T) {
	g, err := NewBuilder(4).Build()
	if err != nil {
		t.Fatal(err)
	}
	share := func(_ *Graph, workers int) float64 { return 1 / float64(workers) }

	const goroutines = 16
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				w := 1 + (i+j)%8
				if got := g.MemoizedCriticalShare(w, share); got != 1/float64(w) {
					t.Errorf("share at %d workers = %v, want %v", w, got, 1/float64(w))
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for w := 1; w <= 8; w++ {
		g.MemoizedCriticalShare(w, func(*Graph, int) float64 {
			t.Errorf("share at %d workers recomputed after it was remembered", w)
			return 0
		})
	}
}

// TestMemoizedCriticalShareBounded pins the constant bound: past
// maxMemoizedShares distinct worker counts the memo stops growing and the
// overflow is recomputed per call — still the right value — while the
// remembered counts keep hitting.
func TestMemoizedCriticalShareBounded(t *testing.T) {
	g, err := NewBuilder(4).Build()
	if err != nil {
		t.Fatal(err)
	}
	computes := 0
	share := func(_ *Graph, workers int) float64 { computes++; return float64(workers) }
	for pass := 0; pass < 2; pass++ {
		for w := 1; w <= 2*maxMemoizedShares; w++ {
			if got := g.MemoizedCriticalShare(w, share); got != float64(w) {
				t.Fatalf("share at %d workers = %v, want %v", w, got, float64(w))
			}
		}
	}
	if len(g.shares.shares) != maxMemoizedShares {
		t.Errorf("memo holds %d worker counts, want the bound %d", len(g.shares.shares), maxMemoizedShares)
	}
	if want := 3 * maxMemoizedShares; computes != want {
		t.Errorf("%d computes over two passes, want %d (remembered counts once, overflow every time)", computes, want)
	}
}
