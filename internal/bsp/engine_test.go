package bsp

import (
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"predict/internal/cluster"
	"predict/internal/graph"
)

// quietOracle returns a noiseless oracle with no memory budget, so tests
// see exact arithmetic.
func quietOracle() *cluster.CostOracle {
	o := cluster.DefaultOracle()
	o.NoiseStdDev = 0
	o.MemoryBudgetBytes = 0
	return &o
}

func testCfg(workers int) Config {
	return Config{Workers: workers, Oracle: quietOracle(), Seed: 1}
}

// maxProgram propagates the maximum vertex ID through the graph: the
// classic Pregel example. Converges on any strongly connected structure.
type maxProgram struct{}

func (maxProgram) Init(_ *graph.Graph, id VertexID) int { return int(id) }

func (maxProgram) Compute(ctx *Context[int], id VertexID, value *int, msgs []int) {
	changed := ctx.Superstep() == 0
	for _, m := range msgs {
		if m > *value {
			*value = m
			changed = true
		}
	}
	if changed {
		ctx.SendToNeighbors(*value)
	}
	ctx.VoteToHalt()
}

func (maxProgram) MessageBytes(int) int { return 8 }

func TestMaxPropagationOnCycle(t *testing.T) {
	g := cycleGraph(20)
	eng := NewEngine[int, int](g, maxProgram{}, testCfg(4))
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for v, val := range res.Values {
		if val != 19 {
			t.Fatalf("vertex %d converged to %d, want 19", v, val)
		}
	}
	if !res.Converged {
		t.Error("Converged = false, want true")
	}
	// A cycle of 20 needs ~20 supersteps to flood the max around.
	if res.Supersteps < 19 || res.Supersteps > 22 {
		t.Errorf("Supersteps = %d, want ~20", res.Supersteps)
	}
}

func cycleGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(VertexID(i), VertexID((i+1)%n))
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func TestMessageCountersExact(t *testing.T) {
	// Superstep 0: every vertex sends its value to all out-neighbors, so
	// exactly NumEdges messages of 8 bytes each are sent in superstep 0.
	g := cycleGraph(12)
	eng := NewEngine[int, int](g, maxProgram{}, testCfg(3))
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	s0 := res.Profile.Supersteps[0].Total()
	if s0.Messages() != 12 {
		t.Errorf("superstep 0 messages = %d, want 12", s0.Messages())
	}
	if s0.MessageBytes() != 96 {
		t.Errorf("superstep 0 bytes = %d, want 96", s0.MessageBytes())
	}
	if s0.ActiveVertices != 12 {
		t.Errorf("superstep 0 active = %d, want 12", s0.ActiveVertices)
	}
	if s0.TotalVertices != 12 {
		t.Errorf("superstep 0 total = %d, want 12", s0.TotalVertices)
	}
	// Local + remote must partition the total.
	var loc, rem int64
	for _, w := range res.Profile.Supersteps[0].Workers {
		loc += w.LocalMessages
		rem += w.RemoteMessages
	}
	if loc+rem != 12 {
		t.Errorf("local %d + remote %d != 12", loc, rem)
	}
	if rem == 0 {
		t.Error("expected some remote messages with 3 workers")
	}
}

func TestSingleWorkerAllMessagesLocal(t *testing.T) {
	g := cycleGraph(10)
	eng := NewEngine[int, int](g, maxProgram{}, testCfg(1))
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	for s, sp := range res.Profile.Supersteps {
		tot := sp.Total()
		if tot.RemoteMessages != 0 || tot.RemoteMessageBytes != 0 {
			t.Fatalf("superstep %d has remote traffic on a single worker", s)
		}
	}
}

// sumProgram floods a constant number of rounds, summing incoming message
// values; used to check combiner equivalence and aggregators.
type sumProgram struct{ rounds int }

func (sumProgram) Init(_ *graph.Graph, _ VertexID) float64 { return 0 }

func (p sumProgram) Compute(ctx *Context[float64], id VertexID, value *float64, msgs []float64) {
	for _, m := range msgs {
		*value += m
	}
	ctx.AddToAggregate("active", 1)
	if ctx.Superstep() < p.rounds {
		ctx.SendToNeighbors(float64(id) + 1)
	} else {
		ctx.VoteToHalt()
	}
}

func (sumProgram) MessageBytes(float64) int { return 8 }

func TestCombinerEquivalence(t *testing.T) {
	g := starPlusRing(50)
	run := func(withCombiner bool) []float64 {
		eng := NewEngine[float64, float64](g, sumProgram{rounds: 3}, testCfg(4))
		if withCombiner {
			eng.SetCombiner(func(a, b float64) float64 { return a + b })
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatalf("Run(combiner=%v): %v", withCombiner, err)
		}
		return res.Values
	}
	plain := run(false)
	combined := run(true)
	for v := range plain {
		if math.Abs(plain[v]-combined[v]) > 1e-9 {
			t.Fatalf("vertex %d: plain %v vs combined %v", v, plain[v], combined[v])
		}
	}
}

// starPlusRing builds a ring with chords into vertex 0, giving a mix of
// degrees.
func starPlusRing(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(VertexID(i), VertexID((i+1)%n))
		if i%3 == 0 && i != 0 {
			b.AddEdge(VertexID(i), 0)
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func TestAggregatesMatchCounters(t *testing.T) {
	g := cycleGraph(30)
	eng := NewEngine[float64, float64](g, sumProgram{rounds: 2}, testCfg(4))
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	for s, sp := range res.Profile.Supersteps {
		tot := sp.Total()
		if agg := sp.Aggregates["active"]; agg != float64(tot.ActiveVertices) {
			t.Errorf("superstep %d: aggregate %v != active counter %d", s, agg, tot.ActiveVertices)
		}
	}
}

func TestHaltPredicateStopsRun(t *testing.T) {
	g := cycleGraph(40)
	eng := NewEngine[int, int](g, maxProgram{}, testCfg(4))
	eng.SetHalt(func(info SuperstepInfo) bool { return info.Superstep >= 4 })
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Supersteps != 5 {
		t.Errorf("Supersteps = %d, want 5 (halt after index 4)", res.Supersteps)
	}
	if !res.Converged {
		t.Error("halt predicate should mark run converged")
	}
}

// chattyProgram never halts; used for the superstep cap.
type chattyProgram struct{}

func (chattyProgram) Init(_ *graph.Graph, _ VertexID) int { return 0 }
func (chattyProgram) Compute(ctx *Context[int], id VertexID, _ *int, _ []int) {
	ctx.SendToNeighbors(1)
}
func (chattyProgram) MessageBytes(int) int { return 8 }

func TestMaxSuperstepsReturnsErrNoConvergence(t *testing.T) {
	g := cycleGraph(10)
	cfg := testCfg(2)
	cfg.MaxSupersteps = 7
	eng := NewEngine[int, int](g, chattyProgram{}, cfg)
	res, err := eng.Run()
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
	if res == nil || res.Supersteps != 7 {
		t.Fatalf("partial result missing or wrong: %+v", res)
	}
	if res.Converged {
		t.Error("Converged = true on capped run")
	}
}

func TestOutOfMemory(t *testing.T) {
	g := cycleGraph(100)
	o := quietOracle()
	o.MemoryBudgetBytes = 10 // absurdly small
	cfg := Config{Workers: 2, Oracle: o}
	eng := NewEngine[int, int](g, chattyProgram{}, cfg)
	_, err := eng.Run()
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestDeterministicSimTimes(t *testing.T) {
	g := starPlusRing(200)
	run := func() *Profile {
		o := cluster.DefaultOracle()
		o.MemoryBudgetBytes = 0
		eng := NewEngine[int, int](g, maxProgram{}, Config{Workers: 4, Seed: 99, Oracle: &o})
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Profile
	}
	p1, p2 := run(), run()
	if len(p1.Supersteps) != len(p2.Supersteps) {
		t.Fatalf("different superstep counts: %d vs %d", len(p1.Supersteps), len(p2.Supersteps))
	}
	for s := range p1.Supersteps {
		if p1.Supersteps[s].Seconds != p2.Supersteps[s].Seconds {
			t.Fatalf("superstep %d sim seconds differ: %v vs %v",
				s, p1.Supersteps[s].Seconds, p2.Supersteps[s].Seconds)
		}
	}
}

func TestProfilePhaseArithmetic(t *testing.T) {
	g := cycleGraph(10)
	eng := NewEngine[int, int](g, maxProgram{}, testCfg(2))
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	p := res.Profile
	want := p.SetupSeconds + p.ReadSeconds + p.SuperstepPhaseSeconds() + p.WriteSeconds
	if got := p.TotalSeconds(); math.Abs(got-want) > 1e-12 {
		t.Errorf("TotalSeconds = %v, want %v", got, want)
	}
	if len(p.Supersteps) != res.Supersteps {
		t.Errorf("profiled %d supersteps, want %d", len(p.Supersteps), res.Supersteps)
	}
}

func TestCriticalWorker(t *testing.T) {
	p := &Profile{
		GraphEdges:     100,
		WorkerOutEdges: []int64{10, 60, 30},
	}
	if w := p.CriticalWorker(); w != 1 {
		t.Errorf("CriticalWorker = %d, want 1", w)
	}
	if s := p.CriticalShare(); s != 0.6 {
		t.Errorf("CriticalShare = %v, want 0.6", s)
	}
}

func TestPartitionCoversAllWorkers(t *testing.T) {
	counts := make([]int, 8)
	for v := 0; v < 10000; v++ {
		w := partitionWorker(VertexID(v), 8)
		if w < 0 || w >= 8 {
			t.Fatalf("partitionWorker out of range: %d", w)
		}
		counts[w]++
	}
	for w, c := range counts {
		if c < 800 || c > 1700 {
			t.Errorf("worker %d has %d vertices; hash partitioning badly skewed", w, c)
		}
	}
}

func TestMoreWorkersThanVertices(t *testing.T) {
	g := cycleGraph(3)
	eng := NewEngine[int, int](g, maxProgram{}, testCfg(16))
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile.NumWorkers != 3 {
		t.Errorf("NumWorkers = %d, want clamped to 3", res.Profile.NumWorkers)
	}
}

func TestEmptyGraphRejected(t *testing.T) {
	var g graph.Graph
	eng := NewEngine[int, int](&g, maxProgram{}, testCfg(2))
	if _, err := eng.Run(); err == nil {
		t.Fatal("empty graph accepted")
	}
}

// haltOnFirstProgram votes to halt immediately without sending anything.
type haltOnFirstProgram struct{}

func (haltOnFirstProgram) Init(_ *graph.Graph, _ VertexID) int { return 0 }
func (haltOnFirstProgram) Compute(ctx *Context[int], _ VertexID, _ *int, _ []int) {
	ctx.VoteToHalt()
}
func (haltOnFirstProgram) MessageBytes(int) int { return 8 }

func TestNaturalTerminationWhenAllHalt(t *testing.T) {
	g := cycleGraph(10)
	eng := NewEngine[int, int](g, haltOnFirstProgram{}, testCfg(2))
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Supersteps != 1 {
		t.Errorf("Supersteps = %d, want 1", res.Supersteps)
	}
	if !res.Converged {
		t.Error("expected natural convergence")
	}
}

// reactivationProgram: vertex 0 broadcasts in superstep 0 — on the cycle
// graph its one out-edge is 0 → 1 — and everyone halts immediately. Vertex
// 1 must be reactivated in superstep 1.
type reactivationProgram struct{}

func (reactivationProgram) Init(_ *graph.Graph, _ VertexID) int { return 0 }
func (reactivationProgram) Compute(ctx *Context[int], id VertexID, value *int, msgs []int) {
	if ctx.Superstep() == 0 && id == 0 {
		ctx.SendToNeighbors(42)
	}
	for _, m := range msgs {
		*value = m
	}
	ctx.VoteToHalt()
}
func (reactivationProgram) MessageBytes(int) int { return 8 }

func TestMessageReactivatesHaltedVertex(t *testing.T) {
	g := cycleGraph(4)
	eng := NewEngine[int, int](g, reactivationProgram{}, testCfg(2))
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[1] != 42 {
		t.Errorf("vertex 1 value = %d, want 42 (reactivation failed)", res.Values[1])
	}
	if res.Supersteps != 2 {
		t.Errorf("Supersteps = %d, want 2", res.Supersteps)
	}
	// Superstep 1 should have exactly one active vertex: the reactivated one.
	if act := res.Profile.Supersteps[1].Total().ActiveVertices; act != 1 {
		t.Errorf("superstep 1 active = %d, want 1", act)
	}
}

func TestAggregateVisibleNextSuperstep(t *testing.T) {
	g := cycleGraph(10)
	var sawPrev atomic.Bool
	prog := aggEchoProgram{saw: &sawPrev}
	eng := NewEngine[int, int](g, prog, testCfg(2))
	eng.SetHalt(func(info SuperstepInfo) bool { return info.Superstep >= 2 })
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !sawPrev.Load() {
		t.Error("aggregate from superstep 0 was not visible in superstep 1")
	}
}

type aggEchoProgram struct{ saw *atomic.Bool }

func (aggEchoProgram) Init(_ *graph.Graph, _ VertexID) int { return 0 }
func (p aggEchoProgram) Compute(ctx *Context[int], id VertexID, _ *int, _ []int) {
	ctx.AddToAggregate("x", 1)
	if ctx.Superstep() == 1 && ctx.Aggregate("x") == 10 {
		p.saw.Store(true)
	}
	ctx.SendToNeighbors(0)
}
func (aggEchoProgram) MessageBytes(int) int { return 8 }

// sparseAggProgram contributes to an aggregator only on even supersteps,
// guarding the epoch-gated merge: an interned name must not linger in the
// profile of supersteps where nothing touched it (the historical
// fresh-map-per-superstep semantics).
type sparseAggProgram struct{}

func (sparseAggProgram) Init(_ *graph.Graph, _ VertexID) int { return 0 }
func (sparseAggProgram) Compute(ctx *Context[int], id VertexID, _ *int, _ []int) {
	if ctx.Superstep()%2 == 0 {
		ctx.AddToAggregate("even", 1)
	}
	ctx.SendToNeighbors(1)
}
func (sparseAggProgram) MessageBytes(int) int { return 8 }

func TestAggregateKeySetMatchesTouchedSupersteps(t *testing.T) {
	g := cycleGraph(20)
	eng := NewEngine[int, int](g, sparseAggProgram{}, testCfg(3))
	eng.SetHalt(func(info SuperstepInfo) bool { return info.Superstep >= 4 })
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	for s, sp := range res.Profile.Supersteps {
		_, present := sp.Aggregates["even"]
		if s%2 == 0 {
			if !present || sp.Aggregates["even"] != 20 {
				t.Errorf("superstep %d: aggregate = %v, want 20", s, sp.Aggregates["even"])
			}
		} else if present {
			t.Errorf("superstep %d: stale aggregate key %v leaked into an untouched superstep", s, sp.Aggregates)
		}
	}
}

// fixedMaxProgram is maxProgram plus the FixedSizeMessager fast path; the
// counters must be identical to the interface-dispatch path.
type fixedMaxProgram struct{ maxProgram }

func (fixedMaxProgram) FixedMessageBytes() int { return 8 }

func TestFixedSizeMessagerCountersMatch(t *testing.T) {
	g := starPlusRing(60)
	run := func(p Program[int, int]) string {
		eng := NewEngine[int, int](g, p, testCfg(4))
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Profile.Fingerprint()
	}
	if got, want := run(fixedMaxProgram{}), run(maxProgram{}); got != want {
		t.Errorf("fixed-size byte counting diverges from MessageBytes dispatch: %s vs %s", got, want)
	}
}

// TestPersistentWorkersExit pins the engine's goroutine hygiene: repeated
// runs must not leak the persistent worker goroutines.
func TestPersistentWorkersExit(t *testing.T) {
	g := cycleGraph(50)
	before := runtime.NumGoroutine()
	for i := 0; i < 25; i++ {
		eng := NewEngine[int, int](g, maxProgram{}, testCfg(5))
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	// Workers exit asynchronously after Run returns; give them a moment.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+5 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d after 25 runs — persistent workers leak",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
