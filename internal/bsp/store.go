package bsp

import "predict/internal/graph"

// stamp locates what one vertex broadcast in one superstep: count
// messages in send order, the first inline and the other count-1 adjacent
// at off in its worker's log. Most programs broadcast once per vertex and
// superstep, so a receiver reads one place per in-edge. The other fields
// are full-width on purpose — a worker index, a vertex's broadcasts in one
// superstep and a log offset are bounded by the graph and the program, not
// by the engine.
type stamp[M any] struct {
	first  M
	off    int
	epoch  int // superstep+1 of the broadcast; the zero stamp matches none
	count  int32
	worker int32
}

// store is the engine's message storage: one copy per broadcast, at the
// sender. A vertex reads its inbox through inOff/inSrc, the reverse
// adjacency in delivery order, from the stamps and logs of the superstep
// before; its own broadcasts go to next (the first) and to its worker's
// Context.log (the rest).
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

	cur, next []stamp[M] // per vertex: the last superstep's, this superstep's
	logs      [][]M      // per worker: the last superstep's second and later broadcasts
}

// newStore builds the delivery-ordered reverse adjacency and the local
// out-degrees for g placed by part, in two passes over the edges — count,
// then place — and sizes the stamps and the logs it hands back (one per
// worker, for that worker's Context): a log holds only a vertex's second
// and later broadcasts, so it starts empty and grows, amortised, for
// programs that send more than once.
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
		cur:      make([]stamp[M], n),
		next:     make([]stamp[M], n),
		logs:     make([][]M, len(workerVerts)),
	}
	return st, make([][]M, len(workerVerts))
}
