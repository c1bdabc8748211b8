package bsp

import (
	"predict/internal/cluster"
	"predict/internal/graph"
)

// Context is the per-worker execution context handed to Program.Compute.
// It routes messages, tracks the Table 1 counters, exposes aggregators and
// implements vote-to-halt. A Context is only valid for the duration of the
// Compute call that receives it.
//
// Contexts are persistent: the engine creates one per worker for the whole
// run and all hot-path state — outboxes, send-side combining slots,
// aggregator arrays — is reused across supersteps, invalidated lazily by
// an epoch stamp instead of being reallocated or cleared. Send and
// AddToAggregate are therefore allocation-free in the steady state.
type Context[M any] struct {
	g       *graph.Graph
	part    []int32
	worker  int
	workers int
	numVert int64

	superstep int
	epoch     uint32 // superstep+1; stamps slots and aggregates as live
	current   VertexID
	load      cluster.WorkerLoad
	halted    []bool
	combiner  Combiner[M]
	prog      interface{ MessageBytes(m M) int }
	// fixedBytes caches FixedSizeMessager.FixedMessageBytes (-1 when the
	// program's messages are variable-size), sparing the per-send
	// interface call on the dominant fixed-size programs.
	fixedBytes int

	// scratch backs the one-element message slice handed to Compute on
	// the combiner path.
	scratch [1]M

	// Slice-backed aggregators: names are interned once into aggIdx and
	// accumulate into aggVals; aggEpoch marks which names were touched
	// this superstep (stale values are reset on first touch, so there is
	// no per-superstep clearing pass and the master merges exactly the
	// names touched this superstep, like the historical fresh-map path).
	aggIdx   map[string]int
	aggNames []string
	aggVals  []float64
	aggEpoch []uint32
	prevAgg  map[string]float64

	// Remote sends, one of two reusable forms. Without an exact combiner:
	// one envelope per message, per destination worker (outbox[dw]),
	// truncated and reused each superstep. With an exact combiner: one
	// dense combined slot per destination vertex (slot/slotEpoch) plus
	// the first-touch order per destination worker (touched[dw]) — at
	// most one combined value per (sender, destination vertex) pair.
	outbox    [][]envelope[M]
	slot      []M
	slotEpoch []uint32
	touched   [][]VertexID

	// next-superstep inboxes, owned by the engine; a worker only writes
	// entries for vertices it owns (local sends).
	nextOne  []M
	nextHas  []bool
	nextList [][]M
}

// Superstep returns the current 0-based superstep index.
func (c *Context[M]) Superstep() int { return c.superstep }

// NumVertices returns the number of vertices in the graph.
func (c *Context[M]) NumVertices() int64 { return c.numVert }

// Graph returns the input graph (read-only by convention).
func (c *Context[M]) Graph() *graph.Graph { return c.g }

// Worker returns the executing worker's index.
func (c *Context[M]) Worker() int { return c.worker }

// Send delivers message m to vertex dst at the next superstep, updating
// the local/remote counters according to dst's worker. Counters are
// always per message sent — combining collapses storage and delivery
// work, never the counted load.
func (c *Context[M]) Send(dst VertexID, m M) {
	c.send(dst, m, c.messageBytes(m))
}

// messageBytes returns the serialized payload size of m.
func (c *Context[M]) messageBytes(m M) int64 {
	if c.fixedBytes >= 0 {
		return int64(c.fixedBytes)
	}
	return int64(c.prog.MessageBytes(m))
}

// send is Send for a message whose payload size is already known.
func (c *Context[M]) send(dst VertexID, m M, bytes int64) {
	if int(c.part[dst]) == c.worker {
		c.load.LocalMessages++
		c.load.LocalMessageBytes += bytes
		if c.combiner != nil {
			if c.nextHas[dst] {
				c.nextOne[dst] = c.combiner(c.nextOne[dst], m)
			} else {
				c.nextOne[dst] = m
				c.nextHas[dst] = true
			}
		} else {
			c.nextList[dst] = append(c.nextList[dst], m)
		}
		return
	}
	w := int(c.part[dst])
	c.load.RemoteMessages++
	c.load.RemoteMessageBytes += bytes
	if c.slot != nil {
		// Send-side combining (exact combiners only): fold into the dense
		// per-destination slot; only the first touch records the envelope.
		if c.slotEpoch[dst] == c.epoch {
			c.slot[dst] = c.combiner(c.slot[dst], m)
		} else {
			c.slot[dst] = m
			c.slotEpoch[dst] = c.epoch
			c.touched[w] = append(c.touched[w], dst)
		}
		return
	}
	c.outbox[w] = append(c.outbox[w], envelope[M]{dst: dst, m: m})
}

// SendToNeighbors sends m to every out-neighbor of v. The message is sized
// once per broadcast: a variable-size program pays one MessageBytes call
// per broadcast, not one per neighbor.
func (c *Context[M]) SendToNeighbors(v VertexID, m M) {
	bytes := c.messageBytes(m)
	for _, dst := range c.g.OutNeighbors(v) {
		c.send(dst, m, bytes)
	}
}

// VoteToHalt deactivates the current vertex; a subsequent message
// reactivates it (Pregel semantics).
func (c *Context[M]) VoteToHalt() {
	c.halted[c.current] = true
}

// AddToAggregate accumulates v into the named global aggregator. The merged
// value is visible to the master's halt predicate after this superstep and
// to all vertices (via Aggregate) during the next superstep.
func (c *Context[M]) AddToAggregate(name string, v float64) {
	i, ok := c.aggIdx[name]
	if !ok {
		i = len(c.aggNames)
		c.aggIdx[name] = i
		c.aggNames = append(c.aggNames, name)
		c.aggVals = append(c.aggVals, 0)
		c.aggEpoch = append(c.aggEpoch, 0)
	}
	if c.aggEpoch[i] != c.epoch {
		c.aggEpoch[i] = c.epoch
		c.aggVals[i] = 0
	}
	c.aggVals[i] += v
}

// Aggregate returns the named aggregator's merged value from the previous
// superstep (0 for the first superstep or unknown names).
func (c *Context[M]) Aggregate(name string) float64 {
	return c.prevAgg[name]
}
