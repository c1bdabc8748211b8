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
// outbound edges — the balance metric CriticalShareOf reports.
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
// worker count) and is remembered on the graph itself (graph.Memo, at
// most graph.MemoFamilyLimit worker counts; past that a share is walked
// per call), so a what-if sweep over a cached graph pays lookups, not
// graph scans.
func CriticalShareOf(g *graph.Graph, workers int) float64 {
	workers = clampWorkers(g.NumVertices(), workers)
	// Cannot fail: the walk returns no error.
	v, _, _ := g.Memo(shareMemo{}).Do(shareMemo{}, workers, func() (any, error) {
		_, outEdges := PartitionStats(g, workers)
		return maxEdgeShare(outEdges), nil
	})
	return v.(float64)
}

// shareMemo names the memo a graph keeps critical shares in, and their
// one family: every worker count's share is the same kind of value.
type shareMemo struct{}
