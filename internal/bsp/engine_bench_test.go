package bsp

import (
	"testing"

	"predict/internal/graph"
)

// benchGraph builds a deterministic mixed-degree graph: ring + arithmetic
// chords + a hub, the same shape the determinism tests pin, scaled up so
// the superstep loop dominates setup.
func benchGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(VertexID(i), VertexID((i+1)%n))
		if i%2 == 0 {
			b.AddEdge(VertexID(i), VertexID((i*7+3)%n))
		}
		if i%5 == 0 && i != 0 {
			b.AddEdge(VertexID(i), 0)
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// rankShareProgram is the PageRank-shaped benchmark load: float64 rank
// shares to every neighbor, an aggregate per superstep, no vote-to-halt.
type rankShareProgram struct{ n float64 }

func (p rankShareProgram) Init(_ *graph.Graph, _ VertexID) float64 { return 1 / p.n }

func (p rankShareProgram) Compute(ctx *Context[float64], id VertexID, v *float64, msgs []float64) {
	var sum float64
	for _, m := range msgs {
		sum += m
	}
	if ctx.Superstep() > 0 {
		*v = 0.15/p.n + 0.85*sum
	}
	ctx.AddToAggregate("bench.delta", sum)
	if deg := ctx.Graph().OutDegree(id); deg > 0 {
		ctx.SendToNeighbors(*v / float64(deg))
	}
}

func (rankShareProgram) MessageBytes(float64) int { return 8 }
func (rankShareProgram) FixedMessageBytes() int   { return 8 }

// labelMinProgram is the Components-shaped benchmark load: VertexID label
// floods with a min combiner. It keeps all vertices active so
// every superstep does full work.
type labelMinProgram struct{}

func (labelMinProgram) Init(_ *graph.Graph, id VertexID) VertexID { return id }

func (labelMinProgram) Compute(ctx *Context[VertexID], id VertexID, label *VertexID, msgs []VertexID) {
	for _, m := range msgs {
		if m < *label {
			*label = m
		}
	}
	ctx.SendToNeighbors(*label)
}

func (labelMinProgram) MessageBytes(VertexID) int { return 4 }
func (labelMinProgram) FixedMessageBytes() int    { return 4 }

const benchSupersteps = 32

// haltAfter stops a benchmark run at a fixed superstep count so every
// measured Run executes the same loop.
func haltAfter(steps int) HaltPredicate {
	return func(info SuperstepInfo) bool { return info.Superstep >= steps-1 }
}

func benchConfig(workers int) Config {
	o := quietOracle()
	return Config{Workers: workers, Oracle: o, Seed: 1, MaxSupersteps: benchSupersteps + 1}
}

// runEngineBench measures one engine Run of benchSupersteps supersteps per
// iteration and reports per-superstep derived metrics alongside the
// standard allocs/op (which includes one-time setup: partitioning, value
// init, buffer allocation).
func runEngineBench[V, M any](b *testing.B, g *graph.Graph, workers int,
	newEngine func() *Engine[V, M]) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := newEngine()
		eng.SetHalt(haltAfter(benchSupersteps))
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchSupersteps), "ns/superstep")
}

func BenchmarkSuperstepPageRankCombiner(b *testing.B) {
	g := benchGraph(4000)
	for _, workers := range []int{1, 4} {
		b.Run(map[int]string{1: "w1", 4: "w4"}[workers], func(b *testing.B) {
			runEngineBench(b, g, workers, func() *Engine[float64, float64] {
				eng := NewEngine[float64, float64](g, rankShareProgram{n: float64(g.NumVertices())}, benchConfig(workers))
				eng.SetCombiner(func(a, b float64) float64 { return a + b })
				return eng
			})
		})
	}
}

func BenchmarkSuperstepPageRankNoCombiner(b *testing.B) {
	g := benchGraph(4000)
	runEngineBench(b, g, 4, func() *Engine[float64, float64] {
		return NewEngine[float64, float64](g, rankShareProgram{n: float64(g.NumVertices())}, benchConfig(4))
	})
}

func BenchmarkSuperstepComponentsCombiner(b *testing.B) {
	g := benchGraph(4000)
	runEngineBench(b, g, 4, func() *Engine[VertexID, VertexID] {
		eng := NewEngine[VertexID, VertexID](g, labelMinProgram{}, benchConfig(4))
		eng.SetCombiner(func(a, b VertexID) VertexID {
			if a < b {
				return a
			}
			return b
		})
		return eng
	})
}

func BenchmarkSuperstepComponentsNoCombiner(b *testing.B) {
	g := benchGraph(4000)
	runEngineBench(b, g, 4, func() *Engine[VertexID, VertexID] {
		return NewEngine[VertexID, VertexID](g, labelMinProgram{}, benchConfig(4))
	})
}

// TestSuperstepSteadyStateAllocs pins the superstep loop's steady-state
// heap allocations: a 64-superstep run minus a 1-superstep run, over the
// 63 supersteps between them, so one-time setup (placement, buffers,
// value init) cancels. Measured ~4 per superstep — the profile's loads and
// worker-seconds slices, the aggregate map and the amortized growth of
// Profile.Supersteps, none of them sized by the graph; the ceiling leaves
// room for the runtime's own bookkeeping but not for a per-worker or
// per-vertex allocation creeping back into the loop.
func TestSuperstepSteadyStateAllocs(t *testing.T) {
	const steps, ceiling = 64, 32
	g := benchGraph(4000)
	cfg := benchConfig(4)
	cfg.MaxSupersteps = steps + 1
	allocs := func(supersteps int) float64 {
		return testing.AllocsPerRun(3, func() {
			eng := NewEngine[float64, float64](g, rankShareProgram{n: float64(g.NumVertices())}, cfg)
			eng.SetCombiner(func(a, b float64) float64 { return a + b })
			eng.SetHalt(haltAfter(supersteps))
			if _, err := eng.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	perStep := (allocs(steps) - allocs(1)) / (steps - 1)
	t.Logf("steady state: %.1f allocations per superstep", perStep)
	if perStep > ceiling {
		t.Errorf("engine steady state allocates %.1f times per superstep, ceiling %d", perStep, ceiling)
	}
}
