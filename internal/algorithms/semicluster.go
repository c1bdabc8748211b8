package algorithms

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"predict/internal/bsp"
	"predict/internal/graph"
)

// SemiClustering implements the parallel semi-clustering algorithm of the
// Pregel paper (§4.2 of PREDIcT): every vertex maintains up to CMax
// semi-clusters it belongs to, scored by
//
//	Sc = (Ic - fB*Bc) / (Vc(Vc-1)/2)
//
// and circulates the best SMax clusters to its neighbors each iteration.
// Convergence: the ratio of semi-cluster updates per iteration drops below
// Tau. Because the threshold is a ratio, the transform function keeps it
// unchanged on sample runs: T = (ID_Conf, τ_S = τ_G).
//
// Per-iteration runtime varies through growing message *sizes* (clusters
// accumulate members up to VMax) — the paper's category ii.a.
type SemiClustering struct {
	// CMax is the maximum number of semi-clusters a vertex retains.
	CMax int
	// SMax is the number of best clusters sent to neighbors per iteration.
	SMax int
	// VMax is the maximum number of vertices in a semi-cluster.
	VMax int
	// FB is the boundary edge factor in (0, 1) penalizing boundary edges.
	FB float64
	// Tau is the convergence threshold on updatedClusters/totalClusters.
	Tau float64
	// MaxIterations caps the run; zero selects 150.
	MaxIterations int
}

// NewSemiClustering returns the paper's base settings (§5.1):
// CMax=1, SMax=1, VMax=10, fB=0.1, τ=0.001.
func NewSemiClustering() SemiClustering {
	return SemiClustering{CMax: 1, SMax: 1, VMax: 10, FB: 0.1, Tau: 0.001, MaxIterations: 150}
}

// Name implements Algorithm.
func (s SemiClustering) Name() string { return "SemiClustering" }

// Transformed implements Algorithm: all parameters identical on the sample
// run (ratio-based convergence is not tuned to dataset size).
func (s SemiClustering) Transformed(float64) Algorithm { return s }

// Run implements Algorithm. The input is symmetrized (semi-clustering is
// defined on undirected weighted graphs); unweighted inputs get weight 1.
func (s SemiClustering) Run(g *graph.Graph, cfg bsp.Config) (*RunInfo, error) {
	ri, _, err := s.RunClusters(g, cfg)
	return ri, err
}

// Cluster is a semi-cluster in the final output: its member vertices and
// score.
type Cluster struct {
	Members []graph.VertexID
	Score   float64
}

// RunClusters executes semi-clustering and returns each vertex's best
// clusters.
func (s SemiClustering) RunClusters(g *graph.Graph, cfg bsp.Config) (*RunInfo, [][]Cluster, error) {
	if s.CMax < 1 {
		return nil, nil, fmt.Errorf("algorithms: semi-clustering CMax = %d, want >= 1", s.CMax)
	}
	res, err := s.engine(g.Undirected(), &scProgram{p: s}, cfg).Run()
	if err != nil {
		return nil, nil, err
	}
	out := make([][]Cluster, len(res.Values))
	for v := range res.Values {
		for _, c := range res.Values[v].best {
			out[v] = append(out[v], Cluster{Members: c.members, Score: c.score})
		}
	}
	return info(s.Name(), res), out, nil
}

// engine returns an engine running prog over the symmetrized graph ug
// under s's iteration cap and convergence condition.
func (s SemiClustering) engine(ug *graph.Graph, prog bsp.Program[scValue, scCluster], cfg bsp.Config) *bsp.Engine[scValue, scCluster] {
	if s.MaxIterations > 0 {
		cfg.MaxSupersteps = s.MaxIterations
	} else if cfg.MaxSupersteps == 0 {
		cfg.MaxSupersteps = 150
	}
	eng := bsp.NewEngine[scValue, scCluster](ug, prog, cfg)
	tau := s.Tau
	eng.SetHalt(func(si bsp.SuperstepInfo) bool {
		if si.Superstep < 1 {
			return false
		}
		total := si.Aggregates[aggSCTotal]
		if total == 0 {
			return true // nothing clustered: degenerate input
		}
		return si.Aggregates[aggSCUpdated]/total < tau
	})
	return eng
}

const (
	aggSCUpdated = "sc.updated"
	aggSCTotal   = "sc.total"
)

// scCluster is a semi-cluster in flight: sorted member list plus
// incrementally maintained internal/boundary weights and score.
type scCluster struct {
	members []graph.VertexID // sorted ascending
	ic, bc  float64
	score   float64
}

// search returns the index of v in the member list and true, or the index
// v would be inserted at and false.
func (c scCluster) search(v graph.VertexID) (int, bool) {
	return slices.BinarySearch(c.members, v)
}

// scCandidate is a cluster under consideration during one Compute call of
// vertex id. With add < 0 it is the embedded cluster as is. With add >= 0
// it is that cluster extended by id — ic, bc and score are the
// extension's, members still the received list, and id belongs at index
// add — so an extension's member list is only built if it wins a place.
type scCandidate struct {
	scCluster
	add int
}

func (c *scCandidate) size() int {
	if c.add >= 0 {
		return len(c.members) + 1
	}
	return len(c.members)
}

// member returns the i-th member of the candidate's sorted member list.
func (c *scCandidate) member(i int, id graph.VertexID) graph.VertexID {
	switch {
	case c.add < 0 || i < c.add:
		return c.members[i]
	case i == c.add:
		return id
	}
	return c.members[i-1]
}

// cluster returns the candidate as a cluster, building an extension's
// member list on first use so that every holder shares the one list.
func (c *scCandidate) cluster(id graph.VertexID) scCluster {
	if c.add >= 0 {
		members := make([]graph.VertexID, len(c.members)+1)
		copy(members, c.members[:c.add])
		members[c.add] = id
		copy(members[c.add+1:], c.members[c.add:])
		c.members, c.add = members, -1
	}
	return c.scCluster
}

// compareMembers orders member lists by size, then lexicographically; zero
// means the same member set.
func compareMembers(a, b *scCandidate, id graph.VertexID) int {
	n := a.size()
	if d := cmp.Compare(n, b.size()); d != 0 {
		return d
	}
	for i := 0; i < n; i++ {
		if d := cmp.Compare(a.member(i, id), b.member(i, id)); d != 0 {
			return d
		}
	}
	return 0
}

// candidateBefore is the cluster order: score descending, then smaller
// first, then lexicographic members. Candidates it does not separate have
// the same score and members; wherever two of them compete the one met
// first stands: the vertex's current clusters before this superstep's
// messages, and messages in inbox order.
func candidateBefore(a, b *scCandidate, id graph.VertexID) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return compareMembers(a, b, id) < 0
}

// place offers candidate c, the next to be appended to cands, to sel:
// indexes into cands of the best limit candidates so far, best first. With
// distinct set, a member set is held once, by its best candidate. It
// reports whether c took a place, in which case the caller must append c
// to cands; a refused candidate is never copied. Offering every candidate
// gives what sorting them all (stably), dropping repeated member sets and
// truncating to limit gives: a candidate is only ever displaced by limit
// better ones.
func place(sel []int32, cands []scCandidate, c *scCandidate, limit int, distinct bool, id graph.VertexID) ([]int32, bool) {
	if len(sel) >= limit && (limit < 1 || !candidateBefore(c, &cands[sel[limit-1]], id)) {
		return sel, false
	}
	if distinct {
		for i, o := range sel {
			if compareMembers(c, &cands[o], id) == 0 {
				if c.score <= cands[o].score {
					return sel, false
				}
				sel = append(sel[:i], sel[i+1:]...)
				break
			}
		}
	}
	j := len(sel)
	for j > 0 && candidateBefore(c, &cands[sel[j-1]], id) {
		j--
	}
	if len(sel) < limit {
		sel = append(sel, 0)
	}
	copy(sel[j+1:], sel[j:])
	sel[j] = int32(len(cands))
	return sel, true
}

// scValue is the per-vertex semi-clustering state.
type scValue struct {
	best     []scCluster // up to CMax best clusters containing the vertex
	strength float64     // total weight of incident edges (cached)
}

// scScratch is one worker's reusable Compute state. cands holds the
// vertex's current clusters, then each received cluster and extension
// that took a place in send or best; send and best index into it.
type scScratch struct {
	cands []scCandidate
	send  []int32
	best  []int32
	// weight[u] is w(id, u) for the vertex id being computed, 0 for a
	// non-neighbour: id's row is scattered in before its first extension
	// and cleared when its Compute ends.
	weight []float32
	// seen memoises this Compute's messages; entries of an earlier
	// Compute (another gen) are empty.
	seen [1 << scSeenBits]scSeen
	gen  uint64
	// repeats counts messages that hit seen, for the kernel tests.
	repeats int
	_       [64]byte // keeps neighbouring workers' slice headers off one cache line
}

// scSeenBits sizes the direct-mapped message memo: 32 slots.
const scSeenBits = 5

// scSeen is a message a vertex received in this Compute and what it made
// of it: whether the vertex is a member (and where it belongs if not),
// and the extension by it if it has one.
type scSeen struct {
	gen     uint64
	cluster scCluster
	at      int
	found   bool
	extends bool
	ext     scCandidate
}

// lookup returns c's memo slot and whether it already holds a message
// with c's members, ic, bc and score, which made what c would make. On a
// miss the slot is taken for c and the caller fills in the rest.
func (s *scScratch) lookup(c scCluster) (*scSeen, bool) {
	h := math.Float64bits(c.ic) ^ math.Float64bits(c.bc)*0x9e3779b97f4a7c15 ^ uint64(len(c.members))
	if n := len(c.members); n > 0 {
		h ^= uint64(c.members[0])<<32 | uint64(c.members[n-1])
	}
	e := &s.seen[(h*0xbf58476d1ce4e5b9)>>(64-scSeenBits)]
	if e.gen == s.gen && sameCluster(e.cluster, c) {
		s.repeats++
		return e, true
	}
	e.gen, e.cluster = s.gen, c
	return e, false
}

// sameCluster reports whether a and b have the same members and the same
// bits of ic, bc and score.
func sameCluster(a, b scCluster) bool {
	return math.Float64bits(a.ic) == math.Float64bits(b.ic) &&
		math.Float64bits(a.bc) == math.Float64bits(b.bc) &&
		math.Float64bits(a.score) == math.Float64bits(b.score) &&
		slices.Equal(a.members, b.members)
}

// weigh scatters id's row into s.weight, sized for g on first use.
func (s *scScratch) weigh(g *graph.Graph, id graph.VertexID) {
	if len(s.weight) < g.NumVertices() {
		s.weight = make([]float32, g.NumVertices())
	}
	adj := g.OutNeighbors(id)
	if ws := g.OutWeights(id); ws != nil {
		for i, u := range adj {
			s.weight[u] = ws[i]
		}
		return
	}
	for _, u := range adj {
		s.weight[u] = 1
	}
}

// unweigh clears id's row from s.weight.
func (s *scScratch) unweigh(g *graph.Graph, id graph.VertexID) {
	for _, u := range g.OutNeighbors(id) {
		s.weight[u] = 0
	}
}

type scProgram struct {
	p       SemiClustering
	scratch []scScratch
}

// SetWorkers implements bsp.WorkerScratcher.
func (sp *scProgram) SetWorkers(workers int) { sp.scratch = make([]scScratch, workers) }

func (sp *scProgram) Init(g *graph.Graph, id bsp.VertexID) scValue {
	var strength float64
	ws := g.OutWeights(id)
	if ws == nil {
		strength = float64(g.OutDegree(id))
	} else {
		for _, w := range ws {
			strength += float64(w)
		}
	}
	return scValue{strength: strength}
}

// score computes the normalized semi-cluster score; singleton clusters
// score 0 so that any real cluster with positive internal weight wins.
func (sp *scProgram) score(ic, bc float64, size int) float64 {
	denom := float64(size*(size-1)) / 2
	if denom < 1 {
		denom = 1
	}
	return (ic - sp.p.FB*bc) / denom
}

// extension returns cluster c with vertex id (which belongs at member
// index at) added, maintaining Ic and Bc incrementally: edges from id to
// members become internal (and stop being boundary); all other incident
// edges of id become boundary. weight is id's row (see scScratch): a
// graph has no parallel edges, so it holds every w(id, m) there is.
func (sp *scProgram) extension(weight []float32, c scCluster, id graph.VertexID, at int, strength float64) scCandidate {
	var wToMembers float64
	for _, m := range c.members {
		wToMembers += float64(weight[m])
	}
	c.ic += wToMembers
	c.bc += strength - 2*wToMembers
	if c.bc < 0 {
		c.bc = 0
	}
	c.score = sp.score(c.ic, c.bc, len(c.members)+1)
	return scCandidate{c, at}
}

func (sp *scProgram) Compute(ctx *bsp.Context[scCluster], id bsp.VertexID, v *scValue, msgs []scCluster) {
	g := ctx.Graph()
	if ctx.Superstep() == 0 {
		// Create the singleton cluster and broadcast it.
		c := scCluster{
			members: []graph.VertexID{id},
			ic:      0,
			bc:      v.strength,
		}
		c.score = sp.score(c.ic, c.bc, 1)
		v.best = append(make([]scCluster, 0, sp.p.CMax), c)
		ctx.SendToNeighbors(c)
		ctx.AddToAggregate(aggSCUpdated, 1)
		ctx.AddToAggregate(aggSCTotal, 1)
		return
	}

	// Form candidates — received clusters plus extensions including self —
	// keeping the best SMax to send onwards and, with the current clusters,
	// the best CMax distinct ones containing id.
	s := &sp.scratch[ctx.Worker()]
	s.gen++
	cands, send, best := s.cands[:0], s.send[:0], s.best[:0]
	for _, c := range v.best {
		cand := scCandidate{c, -1}
		best, _ = place(best, cands, &cand, sp.p.CMax, true, id)
		cands = append(cands, cand)
	}
	weighed := false
	for _, sc := range msgs {
		// A repeat of an earlier message (same members, ic, bc, score)
		// makes the same extension and cannot change best: its member set
		// is held there with an equal or better score, or was refused
		// against a limit that only got stricter. It is offered to send
		// alone, where equal clusters all count.
		e, repeat := s.lookup(sc)
		if !repeat {
			e.at, e.found = sc.search(id)
			e.extends = !e.found && len(sc.members) < sp.p.VMax
			if e.extends {
				if !weighed {
					s.weigh(g, id)
					weighed = true
				}
				e.ext = sp.extension(s.weight, sc, id, e.at, v.strength)
			}
		}
		var sent, kept bool
		cand := scCandidate{sc, -1}
		send, sent = place(send, cands, &cand, sp.p.SMax, false, id)
		if e.found && !repeat {
			best, kept = place(best, cands, &cand, sp.p.CMax, true, id)
		}
		if sent || kept {
			cands = append(cands, cand)
		}
		if e.extends {
			ext := e.ext
			send, sent = place(send, cands, &ext, sp.p.SMax, false, id)
			kept = false
			if !repeat {
				best, kept = place(best, cands, &ext, sp.p.CMax, true, id)
			}
			if sent || kept {
				cands = append(cands, ext)
			}
		}
	}
	if weighed {
		s.unweigh(g, id)
	}

	for _, k := range send {
		ctx.SendToNeighbors(cands[k].cluster(id))
	}

	// cands[i] is still the i-th current cluster.
	updated := 0
	for i, k := range best {
		if i >= len(v.best) || compareMembers(&cands[k], &cands[i], id) != 0 {
			updated++
		}
	}
	v.best = v.best[:0]
	for _, k := range best {
		v.best = append(v.best, cands[k].cluster(id))
	}
	ctx.AddToAggregate(aggSCUpdated, float64(updated))
	ctx.AddToAggregate(aggSCTotal, float64(len(v.best)))
	s.cands, s.send, s.best = cands, send, best
}

func (sp *scProgram) MessageBytes(m scCluster) int {
	return 4*len(m.members) + 12 // member IDs + score + length header
}

// ValueBytes implements bsp.ValueSizer so the simulated memory budget sees
// semi-clustering's large vertex state.
func (sp *scProgram) ValueBytes(v scValue) int {
	b := 16
	for _, c := range v.best {
		b += 4*len(c.members) + 24
	}
	return b
}
