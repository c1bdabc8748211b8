package algorithms

import (
	"fmt"
	"math"
	"slices"

	"predict/internal/bsp"
	"predict/internal/graph"
)

// TopKRanking finds, for every vertex, the K highest PageRank values
// reachable from it (§4.3, after Mizan). It operates on PageRank output:
// Run first executes PageRank to produce ranks, then iterates top-k
// propagation. A vertex that does not update its list in an iteration
// sends nothing, so per-iteration message *counts* decay — the paper's
// category ii.b of runtime variability.
//
// Convergence: the fraction of vertices executing updates drops below Tau
// (a ratio, so the transform function keeps it unchanged:
// T = (ID_Conf, ID_Conv)). The PageRank pre-run is itself transformed on
// sample runs (its threshold is absolute).
type TopKRanking struct {
	// K is the list size; the paper's Conf = {topK}.
	K int
	// Tau is the convergence threshold on activeVertices/totalVertices.
	Tau float64
	// PageRank configures the pre-run that produces input ranks.
	PageRank PageRank
	// MaxIterations caps the top-k phase; zero selects 200.
	MaxIterations int
}

// NewTopKRanking returns the defaults used in the paper's experiments:
// K=10, τ=0.001.
func NewTopKRanking() TopKRanking {
	return TopKRanking{K: 10, Tau: 0.001, PageRank: NewPageRank(), MaxIterations: 200}
}

// Name implements Algorithm.
func (t TopKRanking) Name() string { return "TopKRanking" }

// Transformed implements Algorithm: the top-k threshold is a ratio and
// stays unchanged; the PageRank pre-run scales its absolute threshold.
func (t TopKRanking) Transformed(sr float64) Algorithm {
	t.PageRank = t.PageRank.Transformed(sr).(PageRank)
	return t
}

// Run implements Algorithm. The returned RunInfo covers only the top-k
// phase; the PageRank pre-run is executed but not profiled, mirroring the
// paper's setup where top-k sample runs execute "on output generated by
// PageRank".
func (t TopKRanking) Run(g *graph.Graph, cfg bsp.Config) (*RunInfo, error) {
	ri, _, err := t.RunLists(g, cfg)
	return ri, err
}

// RankEntry is one entry of a vertex's top-k list.
type RankEntry struct {
	ID   graph.VertexID
	Rank float64
}

// RunLists executes the algorithm and returns each vertex's top-k list.
// The input ranks are PageRank's output on g: taken from g when a run with
// t.PageRank's parameters under cfg already left them there (the PageRank
// fit on the same sample), computed by the pre-run otherwise.
func (t TopKRanking) RunLists(g *graph.Graph, cfg bsp.Config) (*RunInfo, [][]RankEntry, error) {
	ranks, err := t.PageRank.ranksOn(g, cfg)
	if err != nil {
		return nil, nil, err
	}
	return t.RunOnRanks(g, ranks, cfg)
}

// RunOnRanks executes only the top-k phase on precomputed ranks: one per
// vertex of g, none of them NaN, which the list order cannot place.
func (t TopKRanking) RunOnRanks(g *graph.Graph, ranks []float64, cfg bsp.Config) (*RunInfo, [][]RankEntry, error) {
	if t.K < 1 {
		return nil, nil, fmt.Errorf("algorithms: top-k list size K = %d, want >= 1", t.K)
	}
	if len(ranks) != g.NumVertices() {
		return nil, nil, fmt.Errorf("algorithms: top-k got %d ranks for %d vertices", len(ranks), g.NumVertices())
	}
	if v := slices.IndexFunc(ranks, math.IsNaN); v >= 0 {
		return nil, nil, fmt.Errorf("algorithms: top-k rank of vertex %d is NaN", v)
	}
	res, err := t.engine(g, &topkProgram{k: t.K, ranks: ranks}, cfg).Run()
	if err != nil {
		return nil, nil, err
	}
	out := make([][]RankEntry, len(res.Values))
	for v := range res.Values {
		out[v] = res.Values[v].list
	}
	return info(t.Name(), res), out, nil
}

// engine returns an engine running prog over g under t's iteration cap
// and convergence condition.
func (t TopKRanking) engine(g *graph.Graph, prog bsp.Program[topkValue, topkMsg], cfg bsp.Config) *bsp.Engine[topkValue, topkMsg] {
	if t.MaxIterations > 0 {
		cfg.MaxSupersteps = t.MaxIterations
	}
	eng := bsp.NewEngine[topkValue, topkMsg](g, prog, cfg)
	n := float64(g.NumVertices())
	tau := t.Tau
	eng.SetHalt(func(si bsp.SuperstepInfo) bool {
		if si.Superstep < 1 {
			return false
		}
		return si.Aggregates[aggTopKUpdated]/n < tau
	})
	return eng
}

const aggTopKUpdated = "topk.updated"

// topkMsg is a top-k list in flight.
type topkMsg []RankEntry

// topkValue is the per-vertex state: the current top-k list.
type topkValue struct {
	list []RankEntry
}

type topkProgram struct {
	k     int
	ranks []float64
	// fold[w] is worker w's merge buffer (length 0, capacity k), so a
	// Compute that leaves its list unchanged allocates nothing.
	fold [][]RankEntry
}

// SetWorkers implements bsp.WorkerScratcher.
func (tp *topkProgram) SetWorkers(workers int) {
	stride := tp.k + 4 // 4 spare entries: a 64-byte line between workers' buffers
	buf := make([]RankEntry, workers*stride)
	tp.fold = make([][]RankEntry, workers)
	for w := range tp.fold {
		tp.fold[w] = buf[w*stride : w*stride : w*stride+tp.k]
	}
}

func (tp *topkProgram) Init(_ *graph.Graph, id bsp.VertexID) topkValue {
	return topkValue{list: []RankEntry{{ID: id, Rank: tp.ranks[id]}}}
}

func (tp *topkProgram) Compute(ctx *bsp.Context[topkMsg], id bsp.VertexID, v *topkValue, msgs []topkMsg) {
	if ctx.Superstep() == 0 {
		ctx.SendToNeighbors(topkMsg(v.list))
		ctx.AddToAggregate(aggTopKUpdated, 1)
		ctx.VoteToHalt()
		return
	}

	list := append(tp.fold[ctx.Worker()], v.list...)
	for _, m := range msgs {
		for _, e := range m {
			// m is in rankBefore order and ranks are never NaN, so once an
			// entry misses a full list's last place the rest of m does too.
			if len(list) == tp.k && !rankBefore(e, list[tp.k-1]) {
				break
			}
			list = insertRank(list, e, tp.k)
		}
	}
	if !rankListsEqual(list, v.list) {
		// A fresh slice: neighbors still hold the old one as a message.
		v.list = slices.Clone(list)
		ctx.SendToNeighbors(topkMsg(v.list))
		ctx.AddToAggregate(aggTopKUpdated, 1)
	}
	ctx.VoteToHalt()
}

func (tp *topkProgram) MessageBytes(m topkMsg) int {
	return 12*len(m) + 4
}

// rankBefore is the list order: rank descending, ID ascending as the
// deterministic tie-break.
func rankBefore(a, b RankEntry) bool {
	return a.Rank > b.Rank || (a.Rank == b.Rank && a.ID < b.ID)
}

// insertRank folds e into list, which holds at most k entries with
// distinct IDs in rankBefore order, and returns the k best of list plus e,
// a repeated ID keeping its better rank. Folding entries one by one gives
// exactly what sorting them all, dropping repeated IDs and truncating to k
// gives: an entry is only ever displaced by k better ones.
func insertRank(list []RankEntry, e RankEntry, k int) []RankEntry {
	if len(list) == k && !rankBefore(e, list[k-1]) {
		return list
	}
	for i := range list {
		if list[i].ID == e.ID {
			if !rankBefore(e, list[i]) {
				return list
			}
			list = append(list[:i], list[i+1:]...)
			break
		}
	}
	j := len(list)
	for j > 0 && rankBefore(e, list[j-1]) {
		j--
	}
	if len(list) < k {
		list = append(list, RankEntry{})
	}
	copy(list[j+1:], list[j:])
	list[j] = e
	return list
}

func rankListsEqual(a, b []RankEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
