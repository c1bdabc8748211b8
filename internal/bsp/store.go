package bsp

import "predict/internal/graph"

// stamp locates what one vertex broadcast in one superstep: count
// messages, adjacent and in send order, at off in its worker's log. The
// fields are full-width on purpose — a worker index, a vertex's broadcasts
// in one superstep and a log offset are bounded by the graph and the
// program, not by the engine.
type stamp struct {
	off    int
	epoch  int // superstep+1 of the broadcast; the zero stamp matches none
	count  int32
	worker int32
}

// store is the engine's message storage: one copy per broadcast, at the
// sender. A vertex reads its inbox through inOff/inSrc, the reverse
// adjacency in delivery order, from the stamps and logs of the superstep
// before; its own broadcasts go to next and to its worker's Context.log.
// The two halves are disjoint, so workers read the one while writing the
// other without synchronisation; the master swaps them at the barrier.
type store[M any] struct {
	// inOff/inSrc list, per vertex, its in-neighbours in delivery order:
	// the senders on its own worker ascending, then the other workers in
	// worker order, senders ascending within each. (A built Graph has no
	// parallel edges, so a sender appears once.)
	inOff []int
	inSrc []VertexID
	// localOut[v] is how many of v's out-neighbours share its worker:
	// what a broadcast by v adds to LocalMessages, the rest of its
	// out-degree to RemoteMessages.
	localOut []int32

	cur, next []stamp // per vertex: the last superstep's, this superstep's
	logs      [][]M   // per worker: the last superstep's broadcasts
}

// newStore builds the delivery-ordered reverse adjacency and the local
// out-degrees for g placed by part, in two passes over the edges — count,
// then place — and sizes the stamps and the logs it hands back (one per
// worker, for that worker's Context): a log starts with room for one
// broadcast per vertex and grows, amortised, for programs that send more.
func newStore[M any](g *graph.Graph, part []int32, workerVerts [][]VertexID) (*store[M], [][]M) {
	n := g.NumVertices()
	inOff := make([]int, n+1)
	inSrc := make([]VertexID, g.NumEdges())
	localOut := make([]int32, n)
	// remote[dst] counts dst's in-neighbours on its own worker, then
	// becomes the cursor of the remote ones, which are listed after them.
	remote := make([]int, n)
	for v := 0; v < n; v++ {
		for _, dst := range g.OutNeighbors(VertexID(v)) {
			inOff[dst+1]++
			if part[dst] == part[v] {
				localOut[v]++
				remote[dst]++
			}
		}
	}
	local := make([]int, n)
	for v := 0; v < n; v++ {
		local[v] = inOff[v]
		remote[v] += inOff[v]
		inOff[v+1] += inOff[v]
	}
	// Visiting senders worker by worker, ascending within each, fills
	// both halves of every list in delivery order at once.
	for w, verts := range workerVerts {
		for _, v := range verts {
			for _, dst := range g.OutNeighbors(v) {
				cursor := remote
				if int(part[dst]) == w {
					cursor = local
				}
				inSrc[cursor[dst]] = v
				cursor[dst]++
			}
		}
	}
	st := &store[M]{
		inOff:    inOff,
		inSrc:    inSrc,
		localOut: localOut,
		cur:      make([]stamp, n),
		next:     make([]stamp, n),
		logs:     make([][]M, len(workerVerts)),
	}
	writing := make([][]M, len(workerVerts))
	for w, verts := range workerVerts {
		st.logs[w] = make([]M, 0, len(verts))
		writing[w] = make([]M, 0, len(verts))
	}
	return st, writing
}
