package core

import (
	"context"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"predict/internal/algorithms"
	"predict/internal/gen"
	"predict/internal/graph"
	"predict/internal/sampling"
)

// familyGraph returns a fresh copy of the graph the sample-family tests
// fit on: the generator is deterministic, so every call is the same graph
// in new memory, remembering nothing.
func familyGraph() *graph.Graph {
	return gen.BarabasiAlbert(1500, 5, 0.4, 23)
}

// familyOptions are testOptions with sample seed seed.
func familyOptions(seed uint64) Options {
	opts := testOptions(0.1)
	opts.Sampling.Seed = seed
	return opts
}

// familyAlgorithms returns the five paper algorithms configured for an
// n-vertex graph, as the service configures them.
func familyAlgorithms(n int) []algorithms.Algorithm {
	tau := algorithms.TauForTolerance(0.001, n)
	pr := algorithms.NewPageRank()
	pr.Tau = tau
	topk := algorithms.NewTopKRanking()
	topk.PageRank.Tau = tau
	return []algorithms.Algorithm{
		pr,
		algorithms.NewConnectedComponents(),
		algorithms.NewNeighborhoodEstimation(),
		topk,
		algorithms.NewSemiClustering(),
	}
}

// fitPrint is everything of a fit that sharing samples, closures or ranks
// could move: the model, its training matrix, the profile of every
// pipeline and the samples' achieved ratios.
type fitPrint struct {
	Coefficients map[string]float64
	Intercept    float64
	Iterations   int
	TrainingRows []float64 // every row's vector then seconds, flattened
	Fingerprints []string  // one per pipeline, task order
	Ratios       []float64 // achieved vertex then edge ratio per pipeline
	Vertices     []int     // sample size per pipeline
}

// fitOutcomes is FitContext with the pipelines' outcomes kept: the fit,
// and every pipeline's sample and profiled run. It reports a failure with
// t.Errorf (it runs on other goroutines too) and returns a nil fit.
func fitOutcomes(t testing.TB, opts Options, alg algorithms.Algorithm, g *graph.Graph) (*Fitted, []sampleOutcome) {
	t.Helper()
	p := New(opts)
	tasks, outcomes, err := p.runPipelines(context.Background(), alg, g)
	if err == nil {
		var f *Fitted
		if f, err = p.train(alg, tasks, outcomes); err == nil {
			return f, outcomes
		}
	}
	t.Errorf("%s: %v", alg.Name(), err)
	return nil, nil
}

// fitPrinted fits alg on g and returns the fit with its print.
func fitPrinted(t testing.TB, opts Options, alg algorithms.Algorithm, g *graph.Graph) (*Fitted, fitPrint) {
	t.Helper()
	f, outcomes := fitOutcomes(t, opts, alg, g)
	if f == nil {
		return nil, fitPrint{}
	}
	raw, intercept := f.Model.Coefficients()
	fp := fitPrint{Coefficients: map[string]float64{}, Intercept: intercept, Iterations: f.Iterations}
	for name, c := range raw {
		fp.Coefficients[string(name)] = c
	}
	for _, row := range f.TrainingRows {
		fp.TrainingRows = append(append(fp.TrainingRows, row.Vector[:]...), row.Seconds)
	}
	for _, o := range outcomes {
		fp.Fingerprints = append(fp.Fingerprints, o.run.Profile.Fingerprint())
		fp.Ratios = append(fp.Ratios, o.sample.VertexRatio, o.sample.EdgeRatio)
		fp.Vertices = append(fp.Vertices, o.sample.Graph.NumVertices())
	}
	return f, fp
}

// referencePrints fits each algorithm alone on its own fresh copy of the
// graph: what every shared fit must reproduce bit for bit.
func referencePrints(t testing.TB, opts Options) []fitPrint {
	t.Helper()
	algs := familyAlgorithms(familyGraph().NumVertices())
	want := make([]fitPrint, len(algs))
	for i, alg := range algs {
		f, fp := fitPrinted(t, opts, alg, familyGraph())
		if f == nil {
			t.FailNow()
		}
		if f.SamplesReused != 0 || f.SamplesDrawn != len(fp.Fingerprints) {
			t.Fatalf("%s alone on a fresh graph: %d drawn, %d reused", alg.Name(), f.SamplesDrawn, f.SamplesReused)
		}
		want[i] = fp
	}
	return want
}

// permutations returns every order of 0..n-1.
func permutations(n int) [][]int {
	var out [][]int
	var rec func(prefix []int, rest []int)
	rec = func(prefix, rest []int) {
		if len(rest) == 0 {
			out = append(out, slices.Clone(prefix))
			return
		}
		for i := range rest {
			next := slices.Delete(slices.Clone(rest), i, i+1)
			rec(append(prefix, rest[i]), next)
		}
	}
	rest := make([]int, n)
	for i := range rest {
		rest[i] = i
	}
	rec(nil, rest)
	return out
}

// TestFitOnRememberedFamilyIsBitIdentical: a fit on a graph that remembers
// its samples, their closures and their ranks equals the fit on a cold
// graph and the fit alone on a fresh copy — for all five algorithms, in
// every order of the five (the first of an order is the cold one; TOPK
// after PR takes deposited ranks, PR after TOPK deposits beside the
// pre-run's; CC and SC share a closure either way round).
func TestFitOnRememberedFamilyIsBitIdentical(t *testing.T) {
	opts := familyOptions(5)
	want := referencePrints(t, opts)
	algs := familyAlgorithms(familyGraph().NumVertices())
	orders := permutations(len(algs))
	if testing.Short() {
		orders = orders[:6]
	}
	for _, order := range orders {
		g := familyGraph()
		for pos, i := range order {
			f, got := fitPrinted(t, opts, algs[i], g)
			if f == nil {
				t.FailNow()
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("order %v: %s fitted at position %d differs from its fit alone on a fresh graph:\n got %+v\nwant %+v",
					order, algs[i].Name(), pos, got, want[i])
			}
			pipelines, wantReused := len(got.Fingerprints), 0
			if pos > 0 {
				wantReused = pipelines
			}
			if f.SamplesReused != wantReused || f.SamplesDrawn != pipelines-wantReused {
				t.Fatalf("order %v: %s at position %d drew %d and reused %d of %d samples",
					order, algs[i].Name(), pos, f.SamplesDrawn, f.SamplesReused, pipelines)
			}
		}
	}
}

// TestConcurrentFitsShareOneFamily: the five algorithms fitted at once on
// one (graph, seed) draw each sample exactly once between them, and each
// still equals its fit alone.
func TestConcurrentFitsShareOneFamily(t *testing.T) {
	opts := familyOptions(5)
	want := referencePrints(t, opts)
	algs := familyAlgorithms(familyGraph().NumVertices())
	g := familyGraph()
	var (
		wg            sync.WaitGroup
		drawn, reused atomic.Int64
		got           = make([]fitPrint, len(algs))
	)
	for i, alg := range algs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, fp := fitPrinted(t, opts, alg, g)
			if f == nil {
				return
			}
			got[i] = fp
			drawn.Add(int64(f.SamplesDrawn))
			reused.Add(int64(f.SamplesReused))
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	pipelines := int64(len(want[0].Fingerprints))
	if drawn.Load() != pipelines || reused.Load() != pipelines*int64(len(algs)-1) {
		t.Fatalf("five concurrent fits drew %d samples and reused %d, want %d drawn once each and %d reused",
			drawn.Load(), reused.Load(), pipelines, pipelines*int64(len(algs)-1))
	}
	for i := range algs {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s fitted beside the other four differs from its fit alone", algs[i].Name())
		}
	}
}

// TestInterleavedSeedsReplaceEachOthersFamily: two seeds taking turns on
// one graph never find their samples — each replaced the other's — so
// every fit draws all of its own, exactly the cost of no memory, and the
// fits are still the ones each seed gives alone.
func TestInterleavedSeedsReplaceEachOthersFamily(t *testing.T) {
	seeds := []uint64{5, 6}
	want := [][]fitPrint{referencePrints(t, familyOptions(seeds[0])), referencePrints(t, familyOptions(seeds[1]))}
	algs := familyAlgorithms(familyGraph().NumVertices())
	g := familyGraph()
	for i, alg := range algs {
		for s, seed := range seeds {
			f, got := fitPrinted(t, familyOptions(seed), alg, g)
			if f == nil {
				t.FailNow()
			}
			if f.SamplesReused != 0 {
				t.Fatalf("%s at seed %d reused %d samples across an interleaved seed", alg.Name(), seed, f.SamplesReused)
			}
			if !reflect.DeepEqual(got, want[s][i]) {
				t.Fatalf("%s at seed %d, interleaved with seed %d, differs from its fit alone", alg.Name(), seed, seeds[1-s])
			}
		}
	}
	// Seed 6 came last, so its family is the one remembered.
	if f, _ := fitPrinted(t, familyOptions(6), algs[0], g); f.SamplesDrawn != 0 {
		t.Fatalf("the last seed's family was not remembered: %d drawn", f.SamplesDrawn)
	}
}

// requireSameSample asserts two samples are equal in everything a run or
// an extrapolation reads.
func requireSameSample(t *testing.T, got, want *sampling.Result) {
	t.Helper()
	if got.Method != want.Method || got.VertexRatio != want.VertexRatio || got.EdgeRatio != want.EdgeRatio {
		t.Fatalf("sample header differs: %v %v %v, want %v %v %v",
			got.Method, got.VertexRatio, got.EdgeRatio, want.Method, want.VertexRatio, want.EdgeRatio)
	}
	if !slices.Equal(got.Vertices, want.Vertices) {
		t.Fatal("visit order differs")
	}
	if got.Graph.NumVertices() != want.Graph.NumVertices() || got.Graph.NumEdges() != want.Graph.NumEdges() {
		t.Fatalf("sample graph is %v, want %v", got.Graph, want.Graph)
	}
	for v := 0; v < want.Graph.NumVertices(); v++ {
		id := graph.VertexID(v)
		if !slices.Equal(got.Graph.OutNeighbors(id), want.Graph.OutNeighbors(id)) ||
			!slices.Equal(got.Graph.OutWeights(id), want.Graph.OutWeights(id)) {
			t.Fatalf("sample vertex %d: adjacency differs", v)
		}
	}
}

// TestRememberedSampleOwnsItsMemory: the sampler draws on pooled
// workspaces, and a remembered sample outlives many later draws on them —
// it must alias none of their buffers. Fifty other samples later, on this
// graph and on a larger one, it still equals a fresh draw.
func TestRememberedSampleOwnsItsMemory(t *testing.T) {
	g := familyGraph()
	p := New(familyOptions(5))
	task := sampleTask{Ratio: 0.1, Seed: 5}
	remembered, reused, err := p.sample(g, task)
	if err != nil || reused {
		t.Fatalf("first draw: reused %v, err %v", reused, err)
	}

	big := testGraphBA()
	for i := 0; i < 50; i++ {
		on, method := g, sampling.Methods()[i%3]
		if i%2 == 1 {
			on = big
		}
		if _, err := sampling.Sample(on, method, sampling.Options{Ratio: 0.02 + 0.01*float64(i%30), Seed: uint64(100 + i)}); err != nil {
			t.Fatal(err)
		}
	}

	again, reused, err := p.sample(g, task)
	if err != nil || !reused || again != remembered {
		t.Fatalf("second ask: reused %v, same %v, err %v", reused, again == remembered, err)
	}
	fresh, err := sampling.Sample(familyGraph(), sampling.BiasedRandomJump, sampling.Options{Ratio: 0.1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	requireSameSample(t, remembered, fresh)
}

// watchSamples fits alg on g and returns the fit plus one channel per
// pipeline, closed when that pipeline's sample graph is collected.
func watchSamples(t *testing.T, opts Options, alg algorithms.Algorithm, g *graph.Graph) (*Fitted, []chan struct{}) {
	t.Helper()
	f, outcomes := fitOutcomes(t, opts, alg, g)
	if f == nil {
		t.FailNow()
	}
	gone := make([]chan struct{}, len(outcomes))
	for i, o := range outcomes {
		if !o.reused { // a reused sample graph already carries its first fit's finalizer
			done := make(chan struct{})
			runtime.SetFinalizer(o.sample.Graph, func(*graph.Graph) { close(done) })
			gone[i] = done
		}
	}
	return f, gone
}

// collected reports whether the finalizer behind done runs within a few
// forced collections.
func collected(done <-chan struct{}) bool {
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-done:
			return true
		case <-time.After(10 * time.Millisecond):
		}
	}
	return false
}

// survives reports that the finalizer behind done has not run after a few
// forced collections: the cheap, necessarily one-sided counterpart of
// collected.
func survives(done <-chan struct{}) bool {
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	select {
	case <-done:
		return false
	case <-time.After(5 * time.Millisecond):
		return true
	}
}

// TestSampleGraphCollectableAfterFit pins who keeps a finished fit's sample
// graphs reachable: the dataset graph's current family, nothing else. A
// Fitted holds its sample's numbers, not the sample, so every sample — the
// main one included — is collectable while its Fitted stays live, once
// another seed's family replaces theirs or once the dataset graph is
// dropped. A memo in a package-level map, or a Fitted holding its sample,
// would fail a step.
func TestSampleGraphCollectableAfterFit(t *testing.T) {
	g := familyGraph()
	pr := familyAlgorithms(g.NumVertices())[0]

	fitted, gone := watchSamples(t, familyOptions(5), pr, g)
	if _, err := fitted.Extrapolate(g, 8); err != nil {
		t.Fatal(err)
	}
	for i, done := range gone {
		if !survives(done) {
			t.Fatalf("sample %d was collected while its family was the graph's current one", i)
		}
	}

	// Another seed's fit replaces the family: the first seed's samples go,
	// though their Fitted is live.
	fitted2, gone2 := watchSamples(t, familyOptions(6), pr, g)
	for i, done := range gone {
		if !collected(done) {
			t.Fatalf("sample %d of a replaced family is still reachable", i)
		}
	}
	// Dropping the graph frees the current family, main sample included,
	// though its Fitted is live.
	if _, err := fitted2.Extrapolate(g, 8); err != nil {
		t.Fatal(err)
	}
	g = nil
	for i, done := range gone2 {
		if !collected(done) {
			t.Fatalf("sample %d outlived its dataset graph", i)
		}
	}
	runtime.KeepAlive(fitted)
	runtime.KeepAlive(fitted2)
}

// TestGraphHoldsOneBoundedFamily throws seeds, ratios, methods and option
// sets at one graph and counts the sample graphs still alive afterwards:
// never more than one family of at most graph.MemoFamilyLimit samples.
func TestGraphHoldsOneBoundedFamily(t *testing.T) {
	g := familyGraph()
	pr := familyAlgorithms(g.NumVertices())[0]
	var alive atomic.Int64
	fit := func(opts Options) {
		t.Helper()
		f, outcomes := fitOutcomes(t, opts, pr, g)
		if f == nil {
			t.FailNow()
		}
		for _, o := range outcomes {
			if !o.reused {
				alive.Add(1)
				runtime.SetFinalizer(o.sample.Graph, func(*graph.Graph) { alive.Add(-1) })
			}
		}
	}
	settle := func() int64 {
		for i := 0; i < 5; i++ {
			runtime.GC()
		}
		return alive.Load()
	}

	for seed := uint64(1); seed <= 6; seed++ {
		for _, method := range sampling.Methods() {
			opts := familyOptions(seed)
			opts.Method = method
			opts.Sampling.Ratio = 0.05 + 0.01*float64(seed)
			fit(opts)
		}
	}
	if n := settle(); n > graph.MemoFamilyLimit || n < 1 {
		t.Fatalf("%d sample graphs alive after 18 families, want the last family's (at most %d)", n, graph.MemoFamilyLimit)
	}

	// One family wider than the limit: everything past it is drawn, used
	// and dropped, never remembered.
	wide := familyOptions(9)
	wide.TrainingRatios = nil
	for i := 0; i < 2*graph.MemoFamilyLimit; i++ {
		wide.TrainingRatios = append(wide.TrainingRatios, 0.03+0.005*float64(i))
	}
	fit(wide)
	if n := settle(); n != graph.MemoFamilyLimit {
		t.Fatalf("%d sample graphs alive after a %d-sample family, want %d", n, 1+len(wide.TrainingRatios), graph.MemoFamilyLimit)
	}
	fit(wide) // and again: the remembered ones are reused, the rest redrawn
	if n := settle(); n != graph.MemoFamilyLimit {
		t.Fatalf("%d sample graphs alive after refitting the wide family, want %d", n, graph.MemoFamilyLimit)
	}
	runtime.KeepAlive(g)
}
