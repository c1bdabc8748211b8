package bsp

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"predict/internal/cluster"
	"predict/internal/graph"
)

// Engine executes a Program over a graph under a Config. Engines are
// single-use: construct, configure, Run once.
//
// It is a broadcast engine: the one way a vertex sends is
// Context.SendToNeighbors, so a message is stored once, at its sender,
// and each receiver gathers it at the next superstep through a reverse
// adjacency built in delivery order (see store). The superstep loop is
// engineered for near-zero steady-state heap allocation: W worker
// goroutines are spawned once and driven through a barrier per superstep
// (inline on the caller for W=1), broadcast logs and gather buffers are
// reused across supersteps, and aggregators are slices found by a scan of
// their names. None of this is observable in the simulation:
// messages and bytes are charged per receiver at send time, so Profile
// counters, oracle pricing and fitted cost models are bit-identical to
// the historical copy-per-edge message path (pinned by the
// engine-determinism tests).
type Engine[V, M any] struct {
	g        *graph.Graph
	prog     Program[V, M]
	cfg      Config
	combiner Combiner[M]
	halt     HaltPredicate
}

// NewEngine returns an engine for program p over graph g.
func NewEngine[V, M any](g *graph.Graph, p Program[V, M], cfg Config) *Engine[V, M] {
	return &Engine[V, M]{g: g, prog: p, cfg: cfg.withDefaults()}
}

// SetCombiner installs a message combiner (optional). A vertex's inbox is
// folded into one message, left to right in delivery order — its own
// worker's senders ascending, then the other workers in worker order —
// which no scheduling can change, so a combiner that is only approximately
// associative (a floating-point sum) still produces bit-identical results
// on every run, and an exact one (min, bitwise or) needs nothing more.
func (e *Engine[V, M]) SetCombiner(c Combiner[M]) { e.combiner = c }

// SetHalt installs the master-side convergence predicate (optional). When
// nil, the run terminates only when every vertex has voted to halt and no
// messages are in flight.
func (e *Engine[V, M]) SetHalt(h HaltPredicate) { e.halt = h }

// partitionWorker maps a vertex to its worker with a multiplicative hash,
// emulating Giraph's hash partitioning.
func partitionWorker(v VertexID, workers int) int {
	return int((uint64(uint32(v)) * 2654435761) % uint64(workers))
}

// crew drives a fixed set of persistent worker goroutines through phase
// barriers: the master installs a phase body, kicks every worker, and
// waits for all of them — a channel round-trip per phase in place of a
// spawn per worker. A single-worker crew runs every phase
// inline on the master goroutine and never spawns.
type crew struct {
	workers int
	fn      func(w int) // current phase body; written only between phases
	kick    []chan struct{}
	wg      sync.WaitGroup
}

// startCrew launches the worker goroutines (none for a single worker).
func startCrew(workers int) *crew {
	c := &crew{workers: workers}
	if workers == 1 {
		return c
	}
	c.kick = make([]chan struct{}, workers)
	for w := range c.kick {
		c.kick[w] = make(chan struct{}, 1)
		go func(w int) {
			for range c.kick[w] {
				c.fn(w)
				c.wg.Done()
			}
		}(w)
	}
	return c
}

// phase runs fn(w) for every worker and returns when all have finished.
// The channel send publishes c.fn to the workers; wg.Wait publishes
// their writes back to the master.
func (c *crew) phase(fn func(w int)) {
	if c.workers == 1 {
		fn(0)
		return
	}
	c.fn = fn
	c.wg.Add(c.workers)
	for _, k := range c.kick {
		k <- struct{}{}
	}
	c.wg.Wait()
}

// stop terminates the worker goroutines. Safe to call more than once
// only via the single defer in Run.
func (c *crew) stop() {
	for _, k := range c.kick {
		close(k)
	}
}

// Run executes the program to convergence and returns the final vertex
// values plus the full execution profile. It returns ErrOutOfMemory if the
// simulated memory budget is exceeded and ErrNoConvergence (with a partial
// result) if MaxSupersteps elapses first.
func (e *Engine[V, M]) Run() (*Result[V], error) {
	if err := e.cfg.Validate(); err != nil {
		return nil, err
	}
	n := e.g.NumVertices()
	W := e.cfg.Workers
	if W > n && n > 0 {
		W = n // never more workers than vertices
	}
	if n == 0 {
		return nil, fmt.Errorf("bsp: empty graph")
	}
	oracle := *e.cfg.Oracle
	rng := rand.New(rand.NewPCG(e.cfg.Seed, e.cfg.Seed^0xbf58476d1ce4e5b9))

	// ----- Setup phase: hash-place vertices onto workers, through the
	// same assignHash that PartitionStats predicts.
	part := make([]int32, n)
	workerVertCounts, workerOutEdges := assignHash(e.g, W, part)
	workerVerts := make([][]VertexID, W)
	for w := range workerVerts {
		workerVerts[w] = make([]VertexID, 0, workerVertCounts[w])
	}
	for v := 0; v < n; v++ {
		workerVerts[part[v]] = append(workerVerts[part[v]], VertexID(v))
	}

	profile := &Profile{
		NumWorkers:     W,
		GraphVertices:  int64(n),
		GraphEdges:     e.g.NumEdges(),
		WorkerVertices: workerVertCounts,
		WorkerOutEdges: workerOutEdges,
		SetupSeconds:   oracle.SetupSeconds,
		ReadSeconds:    oracle.ReadSeconds(int64(n), e.g.NumEdges(), W),
		WriteSeconds:   oracle.WriteSeconds(int64(n), W),
	}

	graphBytes := 8*e.g.NumEdges() + 16*int64(n)
	sizer, hasSizer := any(e.prog).(ValueSizer[V])
	fixedBytes := -1
	if fm, ok := any(e.prog).(FixedSizeMessager); ok {
		fixedBytes = fm.FixedMessageBytes()
	}
	if ws, ok := any(e.prog).(WorkerScratcher); ok {
		ws.SetWorkers(W)
	}

	values := make([]V, n)
	halted := make([]bool, n)
	// The master's merge of a superstep's aggregates, refilled at each
	// barrier: what every context's Aggregate reads in the next superstep.
	merged := &aggregates{}

	// Persistent per-worker contexts around the one broadcast store: every
	// buffer a superstep needs lives in them and is reused, so the
	// steady-state loop allocates nothing per worker.
	st, logs := newStore[M](e.g, part, workerVerts)
	contexts := make([]*Context[M], W)
	for w := 0; w < W; w++ {
		contexts[w] = &Context[M]{
			g:          e.g,
			worker:     w,
			prog:       e.prog,
			fixedBytes: fixedBytes,
			combiner:   e.combiner,
			halted:     halted,
			prevAgg:    merged,
			st:         st,
			log:        logs[w],
		}
	}

	workers := startCrew(W)
	defer workers.stop()

	// ----- Read phase: initialize vertex values (parallel per worker).
	workers.phase(func(w int) {
		for _, v := range workerVerts[w] {
			values[v] = e.prog.Init(e.g, v)
		}
	})

	// The phase body is built once; per-superstep state reaches it through
	// the contexts. A vertex's inbox is gathered when its turn comes, from
	// what its in-neighbours broadcast in the superstep before.
	computePhase := func(w int) {
		c := contexts[w]
		for _, v := range workerVerts[w] {
			msgs := c.gather(v)
			if halted[v] && len(msgs) == 0 {
				continue
			}
			if len(msgs) > 0 {
				halted[v] = false // message receipt reactivates
			}
			c.load.ActiveVertices++
			c.current = v
			e.prog.Compute(c, v, &values[v], msgs)
		}
	}

	// ----- Superstep phase.
	converged := false
	for step := 0; step < e.cfg.MaxSupersteps; step++ {
		start := time.Now()
		epoch := step + 1
		// Reset per-superstep context state and advance the epoch that
		// lazily invalidates stamps and aggregates.
		for w := 0; w < W; w++ {
			c := contexts[w]
			c.superstep = step
			c.epoch = epoch
			c.load = cluster.WorkerLoad{TotalVertices: workerVertCounts[w]}
		}

		workers.phase(computePhase)
		wallNanos := time.Since(start).Nanoseconds()

		// Master: merge aggregates deterministically — per key, worker
		// contributions accumulate in worker order; the epoch gate keeps
		// the key set exactly the names touched this superstep.
		merged.reset()
		for w := 0; w < W; w++ {
			c := contexts[w]
			for i, name := range c.aggNames {
				if c.aggEpoch[i] == epoch {
					merged.add(name, c.aggVals[i])
				}
			}
		}
		agg := make(map[string]float64, len(merged.names))
		for i, name := range merged.names {
			agg[name] = merged.vals[i]
		}
		loads := make([]cluster.WorkerLoad, W)
		workerSecs := make([]float64, W)
		var total cluster.WorkerLoad
		var msgBytes int64
		for w := 0; w < W; w++ {
			loads[w] = contexts[w].load
			// Serialized footprint: payload plus a fixed per-message
			// envelope.
			msgBytes += loads[w].MessageBytes() + 16*loads[w].Messages()
			workerSecs[w] = oracle.WorkerSeconds(loads[w], rng)
			total.Add(loads[w])
		}
		sp := SuperstepProfile{
			Workers:       loads,
			WorkerSeconds: workerSecs,
			Seconds:       oracle.SuperstepSeconds(workerSecs),
			Aggregates:    agg,
			WallNanos:     wallNanos,
		}
		profile.Supersteps = append(profile.Supersteps, sp)

		// Memory budget: graph + vertex state + doubled message footprint
		// (the simulated cluster's outboxes plus inboxes), with a fixed
		// per-message overhead.
		if oracle.MemoryBudgetBytes > 0 {
			var valueBytes int64
			if hasSizer {
				for i := range values {
					valueBytes += int64(sizer.ValueBytes(values[i]))
				}
			}
			est := graphBytes + valueBytes + 2*msgBytes
			if est > oracle.MemoryBudgetBytes {
				return &Result[V]{Values: values, Supersteps: step + 1, Profile: profile},
					fmt.Errorf("%w: superstep %d needs ~%d MiB, budget %d MiB",
						ErrOutOfMemory, step, est>>20, oracle.MemoryBudgetBytes>>20)
			}
		}

		// Termination checks.
		if e.halt != nil && e.halt(SuperstepInfo{
			Superstep:      step,
			ActiveVertices: total.ActiveVertices,
			SentMessages:   total.Messages(),
			Aggregates:     agg,
			NumVertices:    int64(n),
		}) {
			converged = true
		}
		if total.Messages() == 0 {
			allHalted := true
			for _, h := range halted {
				if !h {
					allHalted = false
					break
				}
			}
			if allHalted {
				converged = true
			}
		}

		// Swap the store's halves: what was broadcast this superstep is
		// what the next one gathers, and the logs it read are truncated for
		// reuse.
		st.cur, st.next = st.next, st.cur
		for w, c := range contexts {
			st.logs[w], c.log = c.log, st.logs[w][:0]
		}

		if converged {
			break
		}
	}

	res := &Result[V]{
		Values:     values,
		Supersteps: len(profile.Supersteps),
		Converged:  converged,
		Profile:    profile,
	}
	if !converged {
		return res, fmt.Errorf("%w: %d supersteps", ErrNoConvergence, e.cfg.MaxSupersteps)
	}
	return res, nil
}
