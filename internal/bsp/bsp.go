// Package bsp implements a Pregel/Giraph-style Bulk Synchronous Parallel
// graph-processing engine (§2.2 of the paper): vertex-centric programs run
// in supersteps, exchanging messages that are delivered at the next
// superstep, with vote-to-halt semantics, optional combiners, global
// aggregators and a master-side convergence predicate. A vertex sends by
// broadcasting to its out-neighbours (Context.SendToNeighbors), which is
// all the paper's algorithms do, and the engine is built on that: one
// stored copy per broadcast, gathered by its receivers.
//
// The engine executes genuinely in parallel (one goroutine per worker) and
// maintains the per-worker, per-superstep counters of the paper's Table 1
// (active vertices, local/remote message counts and bytes). A
// cluster.CostOracle converts those counters into simulated cluster
// seconds, which stand in for the wall-clock runtimes of the paper's
// 10-node Giraph deployment.
package bsp

import (
	"errors"
	"fmt"

	"predict/internal/cluster"
	"predict/internal/graph"
)

// VertexID aliases graph.VertexID for convenience.
type VertexID = graph.VertexID

// ErrOutOfMemory reports that a superstep's in-flight messages exceeded the
// simulated cluster memory budget, mirroring Giraph's inability to spill
// messages to disk (§5, "Memory Limits").
var ErrOutOfMemory = errors.New("bsp: simulated cluster memory budget exceeded")

// ErrNoConvergence reports that MaxSupersteps elapsed before the program
// halted or the convergence predicate fired.
var ErrNoConvergence = errors.New("bsp: superstep limit reached before convergence")

// DefaultWorkers is the worker count used when Config.Workers is zero.
const DefaultWorkers = 8

// Config parameterizes an engine run.
type Config struct {
	// Workers is the number of BSP workers; the paper's setup has 29.
	// Zero selects 8.
	Workers int
	// MaxSupersteps bounds the run; zero selects 500.
	MaxSupersteps int
	// Seed drives the cost oracle's noise. Runs with equal seeds and equal
	// programs are bit-identical.
	Seed uint64
	// Oracle prices the simulated cluster. The zero value selects
	// cluster.DefaultOracle().
	Oracle *cluster.CostOracle
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = DefaultWorkers
	}
	if c.MaxSupersteps == 0 {
		c.MaxSupersteps = 500
	}
	if c.Oracle == nil {
		o := cluster.DefaultOracle()
		c.Oracle = &o
	}
	return c
}

// ResolvedConfig is a Config as an engine run reads it: every default
// applied and the oracle by value. It is comparable, so two Configs that
// resolve equal describe the same run of a given program on a given graph
// — the form to key remembered run outputs by.
type ResolvedConfig struct {
	Workers       int
	MaxSupersteps int
	Seed          uint64
	Oracle        cluster.CostOracle
}

// Resolved returns c as an engine run would read it.
func (c Config) Resolved() ResolvedConfig {
	c = c.withDefaults()
	return ResolvedConfig{Workers: c.Workers, MaxSupersteps: c.MaxSupersteps, Seed: c.Seed, Oracle: *c.Oracle}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Workers < 0 {
		return fmt.Errorf("bsp: negative worker count %d", c.Workers)
	}
	if c.MaxSupersteps < 0 {
		return fmt.Errorf("bsp: negative superstep limit %d", c.MaxSupersteps)
	}
	return nil
}

// Program is a vertex-centric BSP program with vertex values of type V and
// messages of type M.
type Program[V, M any] interface {
	// Init returns the initial value of vertex id.
	Init(g *graph.Graph, id VertexID) V
	// Compute processes the messages delivered to vertex id this superstep
	// and may send messages, update the value in place, vote to halt, and
	// contribute to aggregators via ctx. ctx and messages belong to the
	// engine and are reused once Compute returns.
	Compute(ctx *Context[M], id VertexID, value *V, messages []M)
	// MessageBytes reports the serialized payload size of a message, used
	// for the byte counters and the memory budget.
	MessageBytes(m M) int
}

// ValueSizer is an optional Program extension reporting per-vertex state
// size, used by the simulated memory budget. Programs with large vertex
// state (semi-clustering) should implement it.
type ValueSizer[V any] interface {
	ValueBytes(v V) int
}

// FixedSizeMessager is an optional Program extension declaring that every
// message serializes to the same number of bytes. The engine caches the
// size at setup and skips the per-send MessageBytes call on the hot path;
// the returned value must equal MessageBytes(m) for every m. Programs
// with variable-size messages (top-k lists, semi-clusters) simply do not
// implement it.
type FixedSizeMessager interface {
	FixedMessageBytes() int
}

// WorkerScratcher is an optional Program extension for programs that keep
// per-worker scratch indexed by Context.Worker. Run calls SetWorkers once,
// before Init, with the worker count it resolved; that is not
// Config.Workers on a graph with fewer vertices than workers, so a program
// must size its scratch here and nowhere else.
type WorkerScratcher interface {
	SetWorkers(workers int)
}

// Combiner merges two messages destined for the same vertex (e.g. partial
// sums for PageRank), like a Giraph combiner: a vertex is handed the one
// merged message instead of the list.
type Combiner[M any] func(a, b M) M

// SuperstepInfo is handed to the master's convergence predicate after
// every superstep.
type SuperstepInfo struct {
	// Superstep is the 0-based superstep index that just completed.
	Superstep int
	// ActiveVertices is the number of compute invocations this superstep.
	ActiveVertices int64
	// SentMessages is the number of messages sent this superstep.
	SentMessages int64
	// Aggregates holds the merged aggregator values for this superstep.
	Aggregates map[string]float64
	// NumVertices is the graph size, for ratio-style conditions.
	NumVertices int64
}

// HaltPredicate is evaluated by the master after each superstep; returning
// true terminates the run (the algorithm's convergence condition).
type HaltPredicate func(info SuperstepInfo) bool

// Result is the outcome of an engine run.
type Result[V any] struct {
	// Values holds the final vertex values, indexed by vertex.
	Values []V
	// Supersteps is the number of supersteps executed (the paper's
	// "number of iterations" feature).
	Supersteps int
	// Converged is false if the run stopped at MaxSupersteps.
	Converged bool
	// Profile carries all per-superstep, per-worker measurements.
	Profile *Profile
}
