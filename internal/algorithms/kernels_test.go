package algorithms

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"predict/internal/bsp"
	"predict/internal/gen"
	"predict/internal/graph"
)

// The bounded-selection top-k and semi-clustering kernels against the
// historical sort-based ones (reference_test.go): same lists, same
// clusters, same Profile.Fingerprint.

// TestInsertRankMatchesSortedTopK folds random entry streams — few
// distinct ranks so ties abound, few distinct IDs so they repeat, and a
// repeated ID sometimes with another rank — and compares with sorting,
// deduplicating and truncating them.
func TestInsertRankMatchesSortedTopK(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, k := range []int{1, 3, 10, 40} {
		for trial := 0; trial < 300; trial++ {
			entries := make([]RankEntry, rng.IntN(4*k+2))
			for i := range entries {
				entries[i] = RankEntry{ID: graph.VertexID(rng.IntN(2*k + 3)), Rank: float64(rng.IntN(5)) / 4}
			}
			got := make([]RankEntry, 0, k)
			for _, e := range entries {
				got = insertRank(got, e, k)
			}
			want := topK(entries, k)
			if !rankListsEqual(got, want) {
				t.Fatalf("k=%d trial %d: fold = %v, sort = %v", k, trial, got, want)
			}
		}
	}
}

// randomCandidates returns at least n candidates for vertex id over a
// small vertex universe, so member sets repeat, with few distinct scores,
// so ties abound: random clusters, some containing id, and for about half
// of the others the unbuilt extension by id with a score of its own.
func randomCandidates(rng *rand.Rand, n int, id graph.VertexID) []scCandidate {
	var cands []scCandidate
	for len(cands) < n {
		members := []graph.VertexID{graph.VertexID(rng.IntN(3))}
		for v := graph.VertexID(3); v < 8; v++ {
			if rng.IntN(3) == 0 {
				members = append(members, v)
			}
		}
		c := scCluster{members: members, ic: rng.Float64(), score: float64(rng.IntN(3))}
		cands = append(cands, scCandidate{c, -1})
		if at, found := c.search(id); !found && rng.IntN(2) == 0 {
			c.ic, c.score = rng.Float64(), float64(rng.IntN(3))
			cands = append(cands, scCandidate{c, at})
		}
	}
	return cands
}

// TestPlaceMatchesSortAndDedup offers random candidates to both
// selections and compares with the historical full sorts. ic differs
// wherever score and members agree, so the comparison also holds the tie
// rule: sort.SliceStable stands in for the historical sort.Slice, whose
// order among such clusters was arbitrary.
func TestPlaceMatchesSortAndDedup(t *testing.T) {
	const id = graph.VertexID(5)
	rng := rand.New(rand.NewPCG(3, 4))
	stableSort := func(cs []scCluster) {
		sort.SliceStable(cs, func(i, j int) bool { return clusterLess(cs[i], cs[j]) })
	}
	for _, limit := range []int{1, 2, 3} {
		for trial := 0; trial < 300; trial++ {
			all := randomCandidates(rng, rng.IntN(12), id)
			var every, withID []scCluster
			var send, best []int32
			for i := range all {
				built := all[i] // a copy: all[i] stays unbuilt until it is selected
				c := built.cluster(id)
				every = append(every, c)
				send, _ = place(send, all[:i], &all[i], limit, false, id)
				if c.contains(id) {
					withID = append(withID, c)
					best, _ = place(best, all[:i], &all[i], limit, true, id)
				}
			}
			stableSort(every)
			every = every[:min(limit, len(every))]
			stableSort(withID)
			withID = dedupClusters(withID, limit)
			for name, pair := range map[string]struct {
				got  []int32
				want []scCluster
			}{"send": {send, every}, "best": {best, withID}} {
				got := make([]scCluster, len(pair.got))
				for i, k := range pair.got {
					got[i] = all[k].cluster(id)
				}
				if len(got) != len(pair.want) {
					t.Fatalf("limit %d trial %d %s: %d placed, want %d", limit, trial, name, len(got), len(pair.want))
				}
				for i := range got {
					if !reflect.DeepEqual(got[i], pair.want[i]) {
						t.Fatalf("limit %d trial %d %s[%d] = %+v, want %+v", limit, trial, name, i, got[i], pair.want[i])
					}
				}
			}
		}
	}
}

// TestPlaceTieRule pins the rule for clusters the order does not separate
// (same score, same members): the one met first stands. Their ic differs
// here so the survivor is identifiable; on an unweighted graph such
// clusters are identical and the rule is unobservable.
func TestPlaceTieRule(t *testing.T) {
	const id = graph.VertexID(9)
	cands := []scCandidate{
		{scCluster{members: []graph.VertexID{1, 9}, ic: 1, score: 2}, -1},
		{scCluster{members: []graph.VertexID{1, 9}, ic: 2, score: 2}, -1},
		{scCluster{members: []graph.VertexID{1}, ic: 3, score: 2}, 1}, // {1, 9} as an unbuilt extension
	}
	var send, best, none []int32
	for i := range cands {
		send, _ = place(send, cands[:i], &cands[i], 2, false, id)
		best, _ = place(best, cands[:i], &cands[i], 2, true, id)
		none, _ = place(none, cands[:i], &cands[i], 0, false, id)
	}
	if want := []int32{0, 1}; !reflect.DeepEqual(send, want) {
		t.Errorf("send = %v, want %v: equal clusters keep arrival order, repeats kept", send, want)
	}
	if want := []int32{0}; !reflect.DeepEqual(best, want) {
		t.Errorf("best = %v, want %v: a member set is held once, by the first of its equals", best, want)
	}
	if len(none) != 0 {
		t.Errorf("limit 0 placed %v", none)
	}
}

// kernelGraphs are the differential tests' inputs: a scale-free graph, a
// ring lattice where every vertex has the same rank and degree (all ties),
// a weighted graph whose weights 0.1, 0.3 and 0.7 are not dyadic, so ic
// and bc depend on the order members joined and are not exact, and
// cliques joined by bridges with the same weights, where a clique's
// members pass each other the same clusters, so most semi-clustering
// messages repeat one received before.
func kernelGraphs(t *testing.T) []kernelGraph {
	t.Helper()
	rng := rand.New(rand.NewPCG(5, 6))
	const n = 300
	b := graph.NewBuilder(n)
	weights := []float32{0.1, 0.3, 0.7}
	for v := 0; v < n; v++ {
		for e := 0; e < 4; e++ {
			// Mostly near neighbours, so clusters overlap and grow.
			u := (v + 1 + rng.IntN(12)) % n
			if rng.IntN(10) == 0 {
				u = rng.IntN(n)
			}
			if u != v {
				b.AddWeightedEdge(graph.VertexID(v), graph.VertexID(u), weights[rng.IntN(3)])
			}
		}
	}
	weighted, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	const cliques, size = 24, 6
	b = graph.NewBuilder(cliques * size)
	for c := 0; c < cliques; c++ {
		base := c * size
		for u := 0; u < size; u++ {
			for v := u + 1; v < size; v++ {
				b.AddWeightedEdge(graph.VertexID(base+u), graph.VertexID(base+v), weights[rng.IntN(3)])
			}
		}
		// A bridge from this clique's last vertex to the next one's first.
		b.AddWeightedEdge(graph.VertexID(base+size-1), graph.VertexID((base+size)%(cliques*size)), weights[rng.IntN(3)])
	}
	bridged, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return []kernelGraph{
		{"scalefree", gen.BarabasiAlbert(300, 4, 0.5, 11)},
		{"ring", gen.WattsStrogatz(200, 6, 0, 1)},
		{"weighted", weighted},
		{"cliques", bridged},
	}
}

type kernelGraph struct {
	name string
	g    *graph.Graph
}

// kernelWorkers are the differential tests' worker counts. A test does not
// run its whole grid at each: it steps through them from one parameter
// combination to the next and starts each graph one further on, so every
// combination meets every count on some graph.
var kernelWorkers = []int{1, 2, 7}

// TestTopKKernelMatchesReference runs the program with both kernels on
// coarse ranks (five distinct values, so lists are decided by the ID
// tie-break) and on PageRank's.
func TestTopKKernelMatchesReference(t *testing.T) {
	for gi, kg := range kernelGraphs(t) {
		g := kg.g
		_, fine, err := NewPageRank().RunRanks(g, quietCfg(2))
		if err != nil {
			t.Fatal(err)
		}
		coarse := make([]float64, len(fine))
		for v := range coarse {
			coarse[v] = float64(v*7%5) / 4
		}
		combo := gi
		for _, r := range []struct {
			name  string
			ranks []float64
		}{{"pagerank", fine}, {"coarse", coarse}} {
			ranks := r.ranks
			for _, k := range []int{1, 3, 10, 40} {
				w := kernelWorkers[combo%len(kernelWorkers)]
				combo++
				tk := NewTopKRanking()
				tk.K = k
				cfg := determinismConfig(w, 42)
				want, err := tk.engine(g, &refTopKProgram{k: k, ranks: ranks}, cfg).Run()
				if err != nil {
					t.Fatal(err)
				}
				got, err := tk.engine(g, &topkProgram{k: k, ranks: ranks}, cfg).Run()
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s/%s/k%d/w%d", kg.name, r.name, k, w)
				if got.Profile.Fingerprint() != want.Profile.Fingerprint() {
					t.Errorf("%s: fingerprint %s, reference %s", label, got.Profile.Fingerprint(), want.Profile.Fingerprint())
				}
				if !reflect.DeepEqual(got.Values, want.Values) {
					t.Errorf("%s: lists differ from the reference", label)
				}
			}
		}
	}
}

// TestSemiClusterKernelMatchesReference runs the program with both
// kernels over the parameter grid. DeepEqual on the values covers members,
// score, ic and bc of every retained cluster. On the bridged cliques every
// combination must take the repeat shortcut (scScratch.lookup) for at
// least one message in twenty, so the comparison holds the shortcut and
// not only the full path. (It measures 8-11 % at VMax 2, where few clusters
// of two are built with the same bits, and 35-69 % at VMax 10.)
func TestSemiClusterKernelMatchesReference(t *testing.T) {
	for gi, kg := range kernelGraphs(t) {
		ug := kg.g.Undirected()
		combo := gi
		for _, cmax := range []int{1, 2, 3} {
			for _, smax := range []int{1, 2, 3} {
				for _, vmax := range []int{2, 10} {
					w := kernelWorkers[combo%len(kernelWorkers)]
					combo++
					sc := NewSemiClustering()
					sc.CMax, sc.SMax, sc.VMax, sc.MaxIterations = cmax, smax, vmax, 12
					cfg := determinismConfig(w, 42)
					want, err := sc.engine(ug, refSCProgram{&scProgram{p: sc}}, cfg).Run()
					if err != nil && !isCap(err) {
						t.Fatal(err)
					}
					prog := &scProgram{p: sc}
					got, err := sc.engine(ug, prog, cfg).Run()
					if err != nil && !isCap(err) {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s/c%d/s%d/v%d/w%d", kg.name, cmax, smax, vmax, w)
					if kg.name == "cliques" {
						var repeats, messages int64
						for _, s := range prog.scratch {
							repeats += int64(s.repeats)
						}
						for _, sp := range got.Profile.Supersteps {
							messages += sp.Total().Messages()
						}
						if 20*repeats < messages {
							t.Errorf("%s: %d of %d messages took the repeat shortcut, want one in twenty or more", label, repeats, messages)
						}
					}
					if got.Profile.Fingerprint() != want.Profile.Fingerprint() {
						t.Errorf("%s: fingerprint %s, reference %s", label, got.Profile.Fingerprint(), want.Profile.Fingerprint())
					}
					if !reflect.DeepEqual(got.Values, want.Values) {
						t.Errorf("%s: clusters differ from the reference", label)
					}
				}
			}
		}
	}
}

// isCap reports the iteration cap, which the semi-clustering grid reaches
// by design: twelve supersteps of identical traffic are the comparison.
func isCap(err error) bool { return errors.Is(err, bsp.ErrNoConvergence) }

// TestKernelScratchFollowsEngineWorkers: the kernels' per-worker scratch
// must be sized by the worker count Engine.Run resolves, which on a graph
// with fewer vertices than Config.Workers is the vertex count, not the
// configured one. Run with -race: workers write their scratch concurrently.
func TestKernelScratchFollowsEngineWorkers(t *testing.T) {
	tiny := gen.Cycle(3).Undirected()
	cfg := determinismConfig(8, 1)
	sc := NewSemiClustering()
	sc.CMax, sc.SMax = 2, 2
	tk := NewTopKRanking()

	runSC := func(prog bsp.Program[scValue, scCluster]) (string, any) {
		res, err := sc.engine(tiny, prog, cfg).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Profile.Fingerprint(), res.Values
	}
	wantFP, want := runSC(refSCProgram{&scProgram{p: sc}})
	if gotFP, got := runSC(&scProgram{p: sc}); gotFP != wantFP || !reflect.DeepEqual(got, want) {
		t.Error("SC on 3 vertices under Config.Workers 8 differs from the reference")
	}

	ranks := []float64{0, 0.5, 1}
	runTopK := func(prog bsp.Program[topkValue, topkMsg]) (string, any) {
		res, err := tk.engine(tiny, prog, cfg).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Profile.Fingerprint(), res.Values
	}
	wantFP, want = runTopK(&refTopKProgram{k: tk.K, ranks: ranks})
	if gotFP, got := runTopK(&topkProgram{k: tk.K, ranks: ranks}); gotFP != wantFP || !reflect.DeepEqual(got, want) {
		t.Error("TOPK on 3 vertices under Config.Workers 8 differs from the reference")
	}
}

// TestKernelAllocsPerMessage holds heap allocations per message sent for a
// whole engine run on a 3k-vertex graph, where the sort-based kernels
// measured 3.24 (SC) and 1.28 (TOPK) and these measure 0.06 and 0.09 (0.14
// and 0.29 while the engine still grew an inbox per vertex). What remains
// is the member list of an extension that wins a place and the fresh list
// of a vertex whose top-k changed (the engine adds nothing per message:
// it stores a broadcast once and gathers into a reused buffer); a return to
// per-candidate member lists, sort.Slice or per-vertex maps fails here.
func TestKernelAllocsPerMessage(t *testing.T) {
	g := gen.BarabasiAlbert(3000, 8, 0.4, 17)
	cfg := quietCfg(4)
	messages := func(p *bsp.Profile) float64 {
		var m int64
		for _, sp := range p.Supersteps {
			m += sp.Total().Messages()
		}
		return float64(m)
	}

	var scMsgs float64
	scAllocs := testing.AllocsPerRun(2, func() {
		ri, err := NewSemiClustering().Run(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		scMsgs = messages(ri.Profile)
	})
	if perMsg := scAllocs / scMsgs; perMsg > scAllocsPerMessageCeiling {
		t.Errorf("SC: %.0f allocations for %.0f messages = %.3f per message, ceiling %v",
			scAllocs, scMsgs, perMsg, scAllocsPerMessageCeiling)
	}

	tk := NewTopKRanking()
	_, ranks, err := tk.PageRank.RunRanks(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var tkMsgs float64
	tkAllocs := testing.AllocsPerRun(2, func() {
		ri, _, err := tk.RunOnRanks(g, ranks, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tkMsgs = messages(ri.Profile)
	})
	if perMsg := tkAllocs / tkMsgs; perMsg > topkAllocsPerMessageCeiling {
		t.Errorf("TOPK: %.0f allocations for %.0f messages = %.3f per message, ceiling %v",
			tkAllocs, tkMsgs, perMsg, topkAllocsPerMessageCeiling)
	}
	t.Logf("allocations per message: SC %.3f, TOPK %.3f", scAllocs/scMsgs, tkAllocs/tkMsgs)
}

const (
	scAllocsPerMessageCeiling   = 0.25
	topkAllocsPerMessageCeiling = 0.4
)

// TestSemiClusteringRunBytes holds the bytes a semi-clustering sample run
// allocates, on the graph above (379,008 messages of 48-byte clusters).
// It measures 1.8 MB: the engine's set-up, one log entry per broadcast
// and the kernels' member lists. The engine that copied a message per
// edge — an envelope into an outbox, then the cluster into the
// receiver's inbox — measured 20.1 MB here, ten times over the ceiling.
func TestSemiClusteringRunBytes(t *testing.T) {
	const ceiling = 4 << 20
	g := gen.BarabasiAlbert(3000, 8, 0.4, 17)
	g.Undirected() // the closure is the graph's to remember, not the run's
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := NewSemiClustering().Run(g, quietCfg(4)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("SC run allocated %d bytes", allocated)
	if allocated > ceiling {
		t.Errorf("SC run allocated %d bytes, ceiling %d", allocated, ceiling)
	}
}

// TestKernelLimitsRejected: a list or cluster limit below one used to mean
// "no limit" by accident of the truncation loops; it is an error now.
func TestKernelLimitsRejected(t *testing.T) {
	g := gen.Cycle(4)
	tk := NewTopKRanking()
	tk.K = 0
	if _, _, err := tk.RunOnRanks(g, make([]float64, 4), quietCfg(1)); err == nil {
		t.Error("K = 0 accepted")
	}
	sc := NewSemiClustering()
	sc.CMax = 0
	if _, err := sc.Run(g, quietCfg(1)); err == nil {
		t.Error("CMax = 0 accepted")
	}
}
