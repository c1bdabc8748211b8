package bsp

import "predict/internal/graph"

// clampWorkers bounds a requested worker count to [1, max(n, 1)]: never
// more workers than vertices, never fewer than one. An empty graph gets
// one (idle) worker rather than the requested count — the per-worker
// tallies are sized by this value, so an unclamped what-if count on an
// empty graph would size them by whatever the caller asked for.
func clampWorkers(n, workers int) int {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// assignHash computes the engine's hash placement for g across workers:
// vertices/outEdges are the per-worker tallies and, when part is non-nil
// (length NumVertices), part[v] receives the worker owning vertex v. This
// is THE assignment the engine's setup phase uses — PartitionStats and
// Engine.Run both call it, so the predicted and executed placements
// cannot drift (pinned by the partition tests). Only the engine needs
// the per-vertex assignment; the diagnostics pass nil and allocate
// nothing proportional to the graph.
func assignHash(g *graph.Graph, workers int, part []int32) (vertices, outEdges []int64) {
	n := g.NumVertices()
	workers = clampWorkers(n, workers)
	vertices = make([]int64, workers)
	outEdges = make([]int64, workers)
	for v := 0; v < n; v++ {
		w := partitionWorker(VertexID(v), workers)
		if part != nil {
			part[v] = int32(w)
		}
		vertices[w]++
		outEdges[w] += int64(g.OutDegree(VertexID(v)))
	}
	return vertices, outEdges
}

// maxEdgeShare returns the largest worker's fraction of the summed
// outbound edges — the balance objective shared by the hash-placement
// diagnostics (CriticalShareOf) and the edge-balanced partitioner's
// quality metric (CriticalShare).
func maxEdgeShare(outEdges []int64) float64 {
	var total, maxE int64
	for _, e := range outEdges {
		total += e
		if e > maxE {
			maxE = e
		}
	}
	if total == 0 {
		return 0
	}
	return float64(maxE) / float64(total)
}

// PartitionStats computes, without running anything, the per-worker vertex
// and outbound-edge allocation the engine's hash partitioning would
// produce for g with the given worker count. The paper piggybacks exactly
// this computation on the read phase to locate the critical-path worker
// before the superstep phase starts (§3.4).
func PartitionStats(g *graph.Graph, workers int) (vertices, outEdges []int64) {
	return assignHash(g, workers, nil)
}

// CriticalShareOf returns the critical-path worker's fraction of all
// outbound edges under the engine's hash partitioning of g across workers.
// The paper locates the critical-path worker once, piggybacked on the
// read phase (§3.4); likewise the O(n) walk runs once per (graph, clamped
// worker count) and is remembered on the graph itself
// (graph.MemoizedCriticalShare), so a what-if sweep over a cached graph
// pays lookups, not graph scans.
func CriticalShareOf(g *graph.Graph, workers int) float64 {
	return g.MemoizedCriticalShare(clampWorkers(g.NumVertices(), workers), hashCriticalShare)
}

// hashCriticalShare is the uncached walk behind CriticalShareOf.
func hashCriticalShare(g *graph.Graph, workers int) float64 {
	_, outEdges := PartitionStats(g, workers)
	return maxEdgeShare(outEdges)
}

// Partition cuts g into parts contiguous vertex ranges balanced by edge
// load: it minimizes the maximum per-partition cost, where a vertex costs
// outDegree(v)+1 (the +1 charges the per-vertex compute the engine does
// even for isolated vertices, so vertex-heavy sparse ranges are not
// free). The cuts are found by the painter's-partition binary search over
// the answer — O(n log(totalCost)) with no allocation beyond the result.
//
// Contiguity is deliberate: partitions become sub-slice views over the
// shared CSR arrays (graph.Partitioned), each worker scans a dense
// cache-friendly range, and an mmap'd graph partitions for free. The
// trade-off versus hash placement is balance when heavy vertices cluster
// in ID space (no contiguous cut can scatter them); CriticalShare
// reports the achieved balance in the same metric as CriticalShareOf so
// the two strategies are directly comparable, and the regression test
// pins the search optimal within the contiguous family.
func Partition(g *graph.Graph, parts int) *graph.Partitioned {
	n := g.NumVertices()
	if parts < 1 {
		parts = 1
	}
	if parts > n && n > 0 {
		parts = n
	}
	cost := func(v int) int64 { return int64(g.OutDegree(graph.VertexID(v))) + 1 }
	var total, maxCost int64
	for v := 0; v < n; v++ {
		c := cost(v)
		total += c
		if c > maxCost {
			maxCost = c
		}
	}

	// canCut reports whether every partition can stay within budget using
	// at most parts greedy cuts.
	canCut := func(budget int64) bool {
		used, acc := 1, int64(0)
		for v := 0; v < n; v++ {
			c := cost(v)
			if acc+c > budget {
				used++
				acc = c
				if used > parts {
					return false
				}
			} else {
				acc += c
			}
		}
		return true
	}
	lo, hi := maxCost, total
	if n == 0 {
		lo, hi = 0, 0
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if canCut(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}

	// Re-run the greedy sweep at the optimal budget lo to materialize the
	// cuts. canCut(lo) holds, so the sweep never runs out of partitions.
	starts := make([]graph.VertexID, 1, parts+1)
	acc := int64(0)
	for v := 0; v < n; v++ {
		c := cost(v)
		if acc+c > lo && len(starts) < parts {
			starts = append(starts, graph.VertexID(v))
			acc = c
		} else {
			acc += c
		}
	}
	for len(starts) < parts {
		starts = append(starts, graph.VertexID(n))
	}
	starts = append(starts, graph.VertexID(n))

	p, err := graph.NewPartitioned(g, starts)
	if err != nil {
		// Cannot happen: the sweep produces monotone cuts in [0, n].
		panic("bsp: Partition: " + err.Error())
	}
	return p
}

// CriticalShare returns the critical partition's fraction of all outbound
// edges for an edge-balanced partitioning — the same metric
// CriticalShareOf reports for hash placement, so the two strategies are
// directly comparable.
func CriticalShare(p *graph.Partitioned) float64 {
	outEdges := make([]int64, p.NumPartitions())
	for i := range outEdges {
		outEdges[i] = p.View(i).NumEdges()
	}
	return maxEdgeShare(outEdges)
}
