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
