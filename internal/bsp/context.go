package bsp

import (
	"slices"

	"predict/internal/cluster"
	"predict/internal/graph"
)

// Context is the per-worker execution context handed to Program.Compute.
// It records broadcasts, tracks the Table 1 counters, exposes aggregators
// and implements vote-to-halt. A Context is only valid for the duration of
// the Compute call that receives it, and so is the message slice passed
// beside it.
//
// Contexts are persistent: the engine creates one per worker for the whole
// run and all hot-path state — the broadcast log, the gather buffer, the
// aggregator arrays — is reused across supersteps, invalidated lazily by
// an epoch stamp instead of being reallocated or cleared. SendToNeighbors
// and AddToAggregate are therefore allocation-free in the steady state.
type Context[M any] struct {
	g      *graph.Graph
	worker int

	superstep int
	epoch     int // superstep+1; stamps broadcasts and aggregates as live
	current   VertexID
	load      cluster.WorkerLoad
	halted    []bool
	combiner  Combiner[M]
	prog      interface{ MessageBytes(m M) int }
	// fixedBytes caches FixedSizeMessager.FixedMessageBytes (-1 when the
	// program's messages are variable-size), sparing the per-broadcast
	// interface call on the dominant fixed-size programs.
	fixedBytes int

	// Slice-backed aggregators: a name is found by scanning aggNames (a
	// program uses one to three, so a scan beats hashing) and accumulates
	// into aggVals; aggEpoch marks which names were touched this superstep
	// (stale values are reset on first touch, so there is no per-superstep
	// clearing pass and the master merges exactly the names touched this
	// superstep, like the historical fresh-map path). prevAgg is the
	// master's merge of the superstep before, read by Aggregate.
	aggNames []string
	aggVals  []float64
	aggEpoch []int
	prevAgg  *aggregates

	// st is the run's broadcast store, shared by every worker; log is
	// this worker's half of it for the superstep being computed — its
	// vertices' second and later broadcasts so far, in send order (a first
	// broadcast rides in the sender's stamp). The master hands log to the
	// store at the barrier.
	st  *store[M]
	log []M

	// inbox backs the message slice handed to Compute: the gathered list,
	// or the one folded value on the combiner path.
	inbox []M
}

// Superstep returns the current 0-based superstep index.
func (c *Context[M]) Superstep() int { return c.superstep }

// Graph returns the input graph (read-only by convention).
func (c *Context[M]) Graph() *graph.Graph { return c.g }

// Worker returns the executing worker's index.
func (c *Context[M]) Worker() int { return c.worker }

// messageBytes returns the serialized payload size of m.
func (c *Context[M]) messageBytes(m M) int64 {
	if c.fixedBytes >= 0 {
		return int64(c.fixedBytes)
	}
	return int64(c.prog.MessageBytes(m))
}

// SendToNeighbors sends m from the vertex being computed to each of its
// out-neighbours, for delivery at the next superstep. The message is
// stored once: in the vertex's stamp if it is the vertex's first broadcast
// this superstep, in this worker's log otherwise. The counters are charged
// per receiver — one message and its payload bytes for every
// out-neighbour, local or remote by the receiver's worker — from the
// vertex's local out-degree, so they read what a copy per edge would have
// counted. The message is sized once per broadcast.
func (c *Context[M]) SendToNeighbors(m M) {
	v := c.current
	deg := int64(c.g.OutDegree(v))
	if deg == 0 {
		return
	}
	bytes := c.messageBytes(m)
	local := int64(c.st.localOut[v])
	c.load.LocalMessages += local
	c.load.LocalMessageBytes += local * bytes
	c.load.RemoteMessages += deg - local
	c.load.RemoteMessageBytes += (deg - local) * bytes
	s := &c.st.next[v]
	if s.epoch != c.epoch {
		*s = stamp[M]{first: m, off: len(c.log), epoch: c.epoch, count: 1, worker: int32(c.worker)}
		return
	}
	s.count++
	c.log = append(c.log, m)
}

// gather returns the messages broadcast to v in the previous superstep, in
// delivery order: own worker's senders ascending, then each other worker's
// in worker order, a sender's several broadcasts adjacent in send order.
// With a combiner the list is folded left to right into one message — the
// same applications in the same order on every run, so a combiner that is
// only approximately associative (a floating-point sum) still yields
// identical bits. A sender that broadcast once is read from its stamp
// alone; only the rest of a several-broadcast sender's messages are read
// from its worker's log.
func (c *Context[M]) gather(v VertexID) []M {
	c.inbox = c.inbox[:0]
	if c.superstep == 0 {
		return c.inbox
	}
	st, sentIn := c.st, c.epoch-1
	srcs := st.inSrc[st.inOff[v]:st.inOff[v+1]]
	if c.combiner == nil {
		for _, src := range srcs {
			s := &st.cur[src]
			if s.epoch != sentIn {
				continue
			}
			c.inbox = append(c.inbox, s.first)
			if s.count > 1 {
				c.inbox = append(c.inbox, st.logs[s.worker][s.off:s.off+int(s.count)-1]...)
			}
		}
		return c.inbox
	}
	var acc M
	folded := false
	for _, src := range srcs {
		s := &st.cur[src]
		if s.epoch != sentIn {
			continue
		}
		if folded {
			acc = c.combiner(acc, s.first)
		} else {
			acc, folded = s.first, true
		}
		if s.count > 1 {
			for _, m := range st.logs[s.worker][s.off : s.off+int(s.count)-1] {
				acc = c.combiner(acc, m)
			}
		}
	}
	if folded {
		c.inbox = append(c.inbox, acc)
	}
	return c.inbox
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
	i := slices.Index(c.aggNames, name)
	if i < 0 {
		i = len(c.aggNames)
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
	return c.prevAgg.get(name)
}

// aggregates is the master's merge of one superstep's aggregators: each
// name touched, in the order the merge first met it, and its value.
type aggregates struct {
	names []string
	vals  []float64
}

// reset empties a for the next merge, keeping its storage.
func (a *aggregates) reset() {
	a.names, a.vals = a.names[:0], a.vals[:0]
}

// add accumulates v into name's value, which starts at 0 as a map entry
// would.
func (a *aggregates) add(name string, v float64) {
	i := slices.Index(a.names, name)
	if i < 0 {
		i = len(a.names)
		a.names = append(a.names, name)
		a.vals = append(a.vals, 0)
	}
	a.vals[i] += v
}

// get returns name's value, 0 for a name not merged.
func (a *aggregates) get(name string) float64 {
	if i := slices.Index(a.names, name); i >= 0 {
		return a.vals[i]
	}
	return 0
}
