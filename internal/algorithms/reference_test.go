package algorithms

import (
	"sort"

	"predict/internal/bsp"
	"predict/internal/graph"
)

// The historical sort-based top-k and semi-clustering kernels, kept as the
// reference the bounded-selection kernels are tested against
// (kernels_test.go). They are the Compute bodies, and the helpers under
// them, exactly as they ran before the selection kernels replaced them.

// topK deduplicates by vertex ID (keeping the best rank) and returns the k
// highest-ranked entries, ordered by rank descending with ID ascending as
// the deterministic tie-break.
func topK(entries []RankEntry, k int) []RankEntry {
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Rank != entries[j].Rank {
			return entries[i].Rank > entries[j].Rank
		}
		return entries[i].ID < entries[j].ID
	})
	out := make([]RankEntry, 0, k)
	seen := make(map[graph.VertexID]bool, k*2)
	for _, e := range entries {
		if seen[e.ID] {
			continue
		}
		seen[e.ID] = true
		out = append(out, e)
		if len(out) == k {
			break
		}
	}
	return out
}

// refTopKProgram is topkProgram with the historical Compute.
type refTopKProgram struct {
	k     int
	ranks []float64
}

func (tp *refTopKProgram) Init(_ *graph.Graph, id bsp.VertexID) topkValue {
	return topkValue{list: []RankEntry{{ID: id, Rank: tp.ranks[id]}}}
}

func (tp *refTopKProgram) Compute(ctx *bsp.Context[topkMsg], id bsp.VertexID, v *topkValue, msgs []topkMsg) {
	if ctx.Superstep() == 0 {
		ctx.SendToNeighbors(topkMsg(v.list))
		ctx.AddToAggregate(aggTopKUpdated, 1)
		ctx.VoteToHalt()
		return
	}

	merged := make([]RankEntry, 0, len(v.list)+8)
	merged = append(merged, v.list...)
	for _, m := range msgs {
		merged = append(merged, m...)
	}
	newList := topK(merged, tp.k)
	if !rankListsEqual(newList, v.list) {
		v.list = newList
		ctx.SendToNeighbors(topkMsg(newList))
		ctx.AddToAggregate(aggTopKUpdated, 1)
	}
	ctx.VoteToHalt()
}

func (tp *refTopKProgram) MessageBytes(m topkMsg) int { return 12*len(m) + 4 }

func (c scCluster) contains(v graph.VertexID) bool {
	_, found := c.search(v)
	return found
}

func (c scCluster) equal(o scCluster) bool {
	if len(c.members) != len(o.members) {
		return false
	}
	for i := range c.members {
		if c.members[i] != o.members[i] {
			return false
		}
	}
	return true
}

// edgeWeight returns w(id, m) or 0 if the edge does not exist, by binary
// search of id's row: the historical kernel's lookup, which the weight
// table (scScratch.weight) replaced.
func edgeWeight(g *graph.Graph, id, m graph.VertexID) float64 {
	adj := g.OutNeighbors(id)
	lo, hi := 0, len(adj)
	for lo < hi {
		mid := (lo + hi) / 2
		if adj[mid] < m {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(adj) && adj[lo] == m {
		if ws := g.OutWeights(id); ws != nil {
			return float64(ws[lo])
		}
		return 1
	}
	return 0
}

// extend returns cluster c with vertex id added, maintaining Ic and Bc
// incrementally: edges from id to members become internal (and stop being
// boundary); all other incident edges of id become boundary.
func (sp *scProgram) extend(g *graph.Graph, c scCluster, id graph.VertexID, strength float64) scCluster {
	var wToMembers float64
	for _, m := range c.members {
		wToMembers += edgeWeight(g, id, m)
	}
	members := make([]graph.VertexID, len(c.members)+1)
	copy(members, c.members)
	members[len(c.members)] = id
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	ic := c.ic + wToMembers
	bc := c.bc + strength - 2*wToMembers
	if bc < 0 {
		bc = 0
	}
	return scCluster{
		members: members,
		ic:      ic,
		bc:      bc,
		score:   sp.score(ic, bc, len(members)),
	}
}

// sortClusters orders clusters by score descending, with deterministic
// tie-breaking by size then lexicographic members.
func sortClusters(cs []scCluster) {
	sort.Slice(cs, func(i, j int) bool { return clusterLess(cs[i], cs[j]) })
}

func clusterLess(a, b scCluster) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	if len(a.members) != len(b.members) {
		return len(a.members) < len(b.members)
	}
	for k := range a.members {
		if a.members[k] != b.members[k] {
			return a.members[k] < b.members[k]
		}
	}
	return false
}

// dedupClusters removes duplicate member sets (keeping sorted order) and
// truncates to limit.
func dedupClusters(cs []scCluster, limit int) []scCluster {
	out := make([]scCluster, 0, limit)
	for _, c := range cs {
		dup := false
		for _, kept := range out {
			if c.equal(kept) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, c)
			if len(out) == limit {
				break
			}
		}
	}
	return out
}

// refSCProgram is scProgram (Init, score, message and value sizes) with
// the historical Compute.
type refSCProgram struct{ *scProgram }

func (sp refSCProgram) Compute(ctx *bsp.Context[scCluster], id bsp.VertexID, v *scValue, msgs []scCluster) {
	g := ctx.Graph()
	if ctx.Superstep() == 0 {
		// Create the singleton cluster and broadcast it.
		c := scCluster{
			members: []graph.VertexID{id},
			ic:      0,
			bc:      v.strength,
		}
		c.score = sp.score(c.ic, c.bc, 1)
		v.best = []scCluster{c}
		ctx.SendToNeighbors(c)
		ctx.AddToAggregate(aggSCUpdated, 1)
		ctx.AddToAggregate(aggSCTotal, 1)
		return
	}

	// Form candidates: received clusters plus extensions including self.
	candidates := make([]scCluster, 0, 2*len(msgs))
	for _, sc := range msgs {
		candidates = append(candidates, sc)
		if len(sc.members) < sp.p.VMax && !sc.contains(id) {
			candidates = append(candidates, sp.extend(g, sc, id, v.strength))
		}
	}
	sortClusters(candidates)

	// Send the best SMax onwards.
	limit := sp.p.SMax
	if limit > len(candidates) {
		limit = len(candidates)
	}
	for i := 0; i < limit; i++ {
		ctx.SendToNeighbors(candidates[i])
	}

	// Update the local best-cluster list with candidates containing id.
	merged := make([]scCluster, 0, len(v.best)+4)
	merged = append(merged, v.best...)
	for _, c := range candidates {
		if c.contains(id) {
			merged = append(merged, c)
		}
	}
	sortClusters(merged)
	newBest := dedupClusters(merged, sp.p.CMax)

	updated := 0
	for i := range newBest {
		if i >= len(v.best) || !newBest[i].equal(v.best[i]) {
			updated++
		}
	}
	v.best = newBest
	ctx.AddToAggregate(aggSCUpdated, float64(updated))
	ctx.AddToAggregate(aggSCTotal, float64(len(v.best)))
}
