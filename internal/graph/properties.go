package graph

import (
	"math"
	"math/rand/v2"
	"sync"
)

// PowerLawAlpha estimates the exponent of a discrete power-law degree
// distribution by maximum likelihood (Clauset/Shalizi/Newman form):
//
//	alpha = 1 + n / sum(ln(d_i / (dmin - 0.5)))
//
// over degrees d_i >= dmin. It returns 0 if fewer than two vertices have
// degree >= dmin.
func PowerLawAlpha(degrees []int, dmin int) float64 {
	if dmin < 1 {
		dmin = 1
	}
	var sum float64
	n := 0
	for _, d := range degrees {
		if d >= dmin {
			sum += math.Log(float64(d) / (float64(dmin) - 0.5))
			n++
		}
	}
	if n < 2 || sum == 0 {
		return 0
	}
	return 1 + float64(n)/sum
}

// KolmogorovSmirnovSorted computes the two-sample KS D-statistic between two
// degree sequences: the maximum absolute difference between their empirical
// CDFs. It is the fidelity measure Leskovec & Faloutsos use to compare a
// sample's degree distribution against the full graph's. Both sequences
// must already be sorted ascending — the memoized form SortedOutDegrees and
// SortedInDegrees serve — so repeated fidelity measurements against the
// same base graph pay no per-call copy or sort. The inputs are read, never
// modified.
func KolmogorovSmirnovSorted(sa, sb []int) float64 {
	if len(sa) == 0 || len(sb) == 0 {
		return 1
	}
	i, j := 0, 0
	var d float64
	for i < len(sa) && j < len(sb) {
		var x int
		if sa[i] <= sb[j] {
			x = sa[i]
		} else {
			x = sb[j]
		}
		for i < len(sa) && sa[i] <= x {
			i++
		}
		for j < len(sb) && sb[j] <= x {
			j++
		}
		fa := float64(i) / float64(len(sa))
		fb := float64(j) / float64(len(sb))
		if diff := math.Abs(fa - fb); diff > d {
			d = diff
		}
	}
	return d
}

// bfsScratch is the reusable BFS workspace EffectiveDiameter runs on: an
// epoch-stamped distance table (seen.Marked(v) means dist[v] is valid for
// the current source) and a queue walked by head index instead of
// re-slicing. Pooled so concurrent property measurements do not contend.
type bfsScratch struct {
	seen  EpochTable
	dist  []int32
	queue []VertexID
}

var bfsScratchPool = sync.Pool{New: func() any { return new(bfsScratch) }}

func (s *bfsScratch) size(n int) {
	if s.seen.Reset(n) {
		s.dist = make([]int32, n)
	}
	s.dist = s.dist[:n]
	if cap(s.queue) < n {
		s.queue = make([]VertexID, 0, n)
	}
}

// EffectiveDiameter estimates the effective diameter of g: the smallest
// hop count within which at least quantile (e.g. 0.9) of all *reachable*
// source/destination pairs can reach each other, following out-edges.
// It runs BFS from at most sources randomly chosen start vertices; pass
// sources >= NumVertices for the exact value. A seeded rng keeps the
// estimate deterministic.
func EffectiveDiameter(g *Graph, quantile float64, sources int, rng *rand.Rand) int {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	if sources > n {
		sources = n
	}
	order := rng.Perm(n)[:sources]

	// hopCounts[h] = number of (src, dst) pairs at BFS distance exactly h.
	hopCounts := make([]int64, 1, 64)
	sc := bfsScratchPool.Get().(*bfsScratch)
	defer bfsScratchPool.Put(sc)
	sc.size(n)
	for _, srcIdx := range order {
		// A fresh epoch invalidates every dist entry in O(1) instead of
		// the per-source O(n) -1 refill.
		sc.seen.Bump()
		src := VertexID(srcIdx)
		sc.seen.Mark(src)
		sc.dist[src] = 0
		queue := append(sc.queue[:0], src)
		hopCounts[0]++
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			dv := sc.dist[v]
			for _, w := range g.OutNeighbors(v) {
				if !sc.seen.Marked(w) {
					sc.seen.Mark(w)
					sc.dist[w] = dv + 1
					for int(dv)+1 >= len(hopCounts) {
						hopCounts = append(hopCounts, 0)
					}
					hopCounts[dv+1]++
					queue = append(queue, w)
				}
			}
		}
		sc.queue = queue[:0]
	}

	var total int64
	for _, c := range hopCounts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := int64(math.Ceil(quantile * float64(total)))
	var cum int64
	for h, c := range hopCounts {
		cum += c
		if cum >= target {
			return h
		}
	}
	return len(hopCounts) - 1
}

// ClusteringCoefficient estimates the mean local clustering coefficient of
// g treated as a directed graph (a triangle is counted when both (u,v) and
// (u,w) exist and (v,w) exists). It samples at most samples vertices with
// degree >= 2; pass samples >= NumVertices for the exact value.
func ClusteringCoefficient(g *Graph, samples int, rng *rand.Rand) float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	order := rng.Perm(n)
	var sum float64
	count := 0
	for _, vi := range order {
		if count >= samples {
			break
		}
		v := VertexID(vi)
		adj := g.OutNeighbors(v)
		if len(adj) < 2 {
			continue
		}
		closed := 0
		possible := 0
		for i := 0; i < len(adj); i++ {
			for j := i + 1; j < len(adj); j++ {
				possible++
				if g.HasEdge(adj[i], adj[j]) || g.HasEdge(adj[j], adj[i]) {
					closed++
				}
			}
		}
		sum += float64(closed) / float64(possible)
		count++
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// WeaklyConnectedComponents labels every vertex with a component ID
// (0-based, ordered by first appearance) ignoring edge direction, and
// returns the labels and the number of components.
func WeaklyConnectedComponents(g *Graph) (labels []int32, numComponents int) {
	n := g.NumVertices()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	for v := 0; v < n; v++ {
		for _, w := range g.OutNeighbors(VertexID(v)) {
			union(int32(v), int32(w))
		}
	}
	labels = make([]int32, n)
	next := int32(0)
	rename := make(map[int32]int32, 16)
	for v := 0; v < n; v++ {
		root := find(int32(v))
		id, ok := rename[root]
		if !ok {
			id = next
			rename[root] = id
			next++
		}
		labels[v] = id
	}
	return labels, int(next)
}

// LargestComponentFraction reports the fraction of vertices in the largest
// weakly connected component. Connectivity of samples is a primary
// sampling-fidelity requirement in the paper (§4.1).
func LargestComponentFraction(g *Graph) float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	labels, k := WeaklyConnectedComponents(g)
	sizes := make([]int, k)
	for _, l := range labels {
		sizes[l]++
	}
	maxSize := 0
	for _, s := range sizes {
		if s > maxSize {
			maxSize = s
		}
	}
	return float64(maxSize) / float64(n)
}

// InOutRatioStats computes the mean of per-vertex in/out degree ratios over
// vertices with non-zero out-degree. The paper's sampling requirements call
// for the sample to preserve in/out degree proportionality (§4.1).
func InOutRatioStats(g *Graph) float64 {
	in := g.inDegrees()
	n := g.NumVertices()
	var sum float64
	count := 0
	for v := 0; v < n; v++ {
		out := g.OutDegree(VertexID(v))
		if out == 0 {
			continue
		}
		sum += float64(in[v]) / float64(out)
		count++
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// Properties bundles the structural measurements reported in Table 2 and
// used to validate sampling fidelity.
type Properties struct {
	NumVertices       int
	NumEdges          int64
	AvgOutDegree      float64
	MaxOutDegree      int
	EffectiveDiameter int
	Clustering        float64
	PowerLawAlpha     float64
	LargestWCC        float64
	InOutRatio        float64
}

// Measure computes the full property bundle using the given number of
// BFS sources and clustering samples (both bounded by n).
func Measure(g *Graph, bfsSources, ccSamples int, seed uint64) Properties {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	// The shared memoized degree slice: MaxOutDegree comes straight from
	// the degree artifact and PowerLawAlpha only reads the sequence.
	degs := g.CachedOutDegrees()
	return Properties{
		NumVertices:       g.NumVertices(),
		NumEdges:          g.NumEdges(),
		AvgOutDegree:      g.AvgOutDegree(),
		MaxOutDegree:      g.MaxOutDegree(),
		EffectiveDiameter: EffectiveDiameter(g, 0.9, bfsSources, rng),
		Clustering:        ClusteringCoefficient(g, ccSamples, rng),
		PowerLawAlpha:     PowerLawAlpha(degs, 2),
		LargestWCC:        LargestComponentFraction(g),
		InOutRatio:        InOutRatioStats(g),
	}
}
