package bsp

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"predict/internal/graph"
)

func TestPartitionStatsConservation(t *testing.T) {
	g := starPlusRing(500)
	verts, edges := PartitionStats(g, 8)
	var vSum, eSum int64
	for w := range verts {
		vSum += verts[w]
		eSum += edges[w]
	}
	if vSum != int64(g.NumVertices()) {
		t.Errorf("vertex sum = %d, want %d", vSum, g.NumVertices())
	}
	if eSum != g.NumEdges() {
		t.Errorf("edge sum = %d, want %d", eSum, g.NumEdges())
	}
}

func TestPartitionStatsMatchesEngine(t *testing.T) {
	// The static partition stats must agree with what the engine records.
	g := starPlusRing(300)
	verts, edges := PartitionStats(g, 4)
	eng := NewEngine[int, int](g, maxProgram{}, testCfg(4))
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 4; w++ {
		if res.Profile.WorkerVertices[w] != verts[w] {
			t.Errorf("worker %d vertices: engine %d vs static %d",
				w, res.Profile.WorkerVertices[w], verts[w])
		}
		if res.Profile.WorkerOutEdges[w] != edges[w] {
			t.Errorf("worker %d edges: engine %d vs static %d",
				w, res.Profile.WorkerOutEdges[w], edges[w])
		}
	}
}

func TestCriticalShareOfBounds(t *testing.T) {
	g := starPlusRing(1000)
	share := CriticalShareOf(g, 8)
	if share < 1.0/8 || share > 1.0 {
		t.Errorf("CriticalShareOf = %v, want in [0.125, 1]", share)
	}
	// One worker owns everything.
	if s := CriticalShareOf(g, 1); s != 1 {
		t.Errorf("single-worker share = %v, want 1", s)
	}
}

func TestCriticalShareOfEmptyGraph(t *testing.T) {
	b := graph.NewBuilder(5) // no edges
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if s := CriticalShareOf(g, 4); s != 0 {
		t.Errorf("edgeless share = %v, want 0", s)
	}
}

func TestPartitionStatsClampsWorkers(t *testing.T) {
	g := starPlusRing(10)
	verts, _ := PartitionStats(g, 100)
	if len(verts) != 10 {
		t.Errorf("got %d workers, want clamped 10", len(verts))
	}
	verts, _ = PartitionStats(g, 0)
	if len(verts) != 1 {
		t.Errorf("got %d workers for 0 requested, want 1", len(verts))
	}
}

// TestPartitionStatsTalliesWithoutAssignment pins that the diagnostics
// allocate the two per-worker tallies and nothing sized by the graph: the
// per-vertex assignment is the engine's alone.
func TestPartitionStatsTalliesWithoutAssignment(t *testing.T) {
	g := starPlusRing(5000)
	if allocs := testing.AllocsPerRun(20, func() { PartitionStats(g, 8) }); allocs > 2 {
		t.Errorf("PartitionStats allocates %v times per call, want the 2 tallies", allocs)
	}
	CriticalShareOf(g, 8) // first touch walks the graph
	if allocs := testing.AllocsPerRun(20, func() { CriticalShareOf(g, 8) }); allocs != 0 {
		t.Errorf("memoized CriticalShareOf allocates %v times per call, want 0", allocs)
	}
}

// TestPartitionStatsEmptyGraphClampsWorkers pins the n == 0 clamp: a
// what-if count of 2^31 workers on an empty graph must size the tallies
// for one idle worker, not for the count asked (two 16 GiB slices).
func TestPartitionStatsEmptyGraphClampsWorkers(t *testing.T) {
	empty, err := graph.NewBuilder(0).Build()
	if err != nil {
		t.Fatal(err)
	}
	verts, edges := PartitionStats(empty, 1<<31)
	if len(verts) != 1 || len(edges) != 1 {
		t.Fatalf("empty graph at 2^31 workers: %d/%d tallies, want 1/1", len(verts), len(edges))
	}
	if s := CriticalShareOf(empty, 1<<31); s != 0 {
		t.Errorf("empty graph critical share = %v, want 0", s)
	}
}

// TestCriticalShareOfMemoMatchesWalk holds the memo to the walk it
// replaces, on first touch and on every later one, for more distinct
// worker counts than a graph remembers — and across the clamp, where
// every count above n shares n's entry.
func TestCriticalShareOfMemoMatchesWalk(t *testing.T) {
	g := skewedGraph(400)
	for pass := 0; pass < 2; pass++ {
		for w := -1; w <= 450; w++ {
			_, edges := PartitionStats(g, w)
			if got, want := CriticalShareOf(g, w), maxEdgeShare(edges); got != want {
				t.Fatalf("pass %d: CriticalShareOf(g, %d) = %v, walk gives %v", pass, w, got, want)
			}
		}
	}
}

// remembered reports whether g's share memo holds a share for the clamped
// worker count w, without storing one when it does not.
func remembered(g *graph.Graph, w int) bool {
	_, reused, _ := g.Memo(shareMemo{}).Do(shareMemo{}, w, func() (any, error) {
		return nil, errors.New("not remembered")
	})
	return reused
}

// TestMemoizedCriticalShareConcurrent is the -race regression for the
// per-graph share memo: concurrent what-if predictions on one cached
// graph race first touches and hits over a few worker counts. Every call
// must return the walk's value, and once a count is remembered it is
// never computed again.
func TestMemoizedCriticalShareConcurrent(t *testing.T) {
	g := skewedGraph(400)
	want := make([]float64, 9)
	for w := 1; w <= 8; w++ {
		_, edges := PartitionStats(g, w)
		want[w] = maxEdgeShare(edges)
	}

	const goroutines = 16
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				w := 1 + (i+j)%8
				if got := CriticalShareOf(g, w); got != want[w] {
					t.Errorf("share at %d workers = %v, want %v", w, got, want[w])
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for w := 1; w <= 8; w++ {
		if !remembered(g, w) {
			t.Errorf("share at %d workers not remembered", w)
		}
	}
}

// TestMemoizedCriticalShareBounded pins the bound: past
// graph.MemoFamilyLimit distinct worker counts the memo stops growing
// and the overflow is walked per call — still the walk's value — while
// the remembered counts keep hitting.
func TestMemoizedCriticalShareBounded(t *testing.T) {
	g := skewedGraph(400)
	for pass := 0; pass < 2; pass++ {
		for w := 1; w <= 2*graph.MemoFamilyLimit; w++ {
			_, edges := PartitionStats(g, w)
			if got, want := CriticalShareOf(g, w), maxEdgeShare(edges); got != want {
				t.Fatalf("pass %d: share at %d workers = %v, walk gives %v", pass, w, got, want)
			}
		}
	}
	for w := 1; w <= 2*graph.MemoFamilyLimit; w++ {
		if got, want := remembered(g, w), w <= graph.MemoFamilyLimit; got != want {
			t.Errorf("share at %d workers remembered = %v, want %v", w, got, want)
		}
	}
}

// skewedGraph concentrates a third of the edge mass on 5% of the
// vertices — the degree skew that makes balance interesting.
func skewedGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	state := uint64(11)
	next := func(mod int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(mod))
	}
	for i := 0; i < 5*n; i++ {
		src := next(n)
		if i%3 == 0 {
			src = next(n/20 + 1)
		}
		b.AddEdge(VertexID(src), VertexID(next(n)))
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// TestEngineFingerprintOnMmapGraph runs the hash-placed engine on an
// mmap'd snapshot of the test graph at several worker counts and
// requires profile fingerprints identical to the heap graph's: the
// engine cannot tell mapped pages from heap arrays.
func TestEngineFingerprintOnMmapGraph(t *testing.T) {
	g := skewedGraph(300)
	path := filepath.Join(t.TempDir(), "g.snap")
	if err := graph.WriteSnapshotFile(path, g); err != nil {
		t.Fatal(err)
	}
	mapped, live, err := graph.OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("mmap path live: %v (false means copy-in fallback, still pinned)", live)
	for _, workers := range []int{1, 2, 7} {
		heapRes, err := NewEngine[int, int](g, maxProgram{}, testCfg(workers)).Run()
		if err != nil {
			t.Fatal(err)
		}
		mapRes, err := NewEngine[int, int](mapped, maxProgram{}, testCfg(workers)).Run()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := mapRes.Profile.Fingerprint(), heapRes.Profile.Fingerprint(); got != want {
			t.Errorf("workers=%d: mmap'd graph fingerprint %s differs from heap %s", workers, got, want)
		}
	}
}
