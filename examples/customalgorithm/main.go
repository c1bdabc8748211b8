// Custom algorithm: plugging a user-defined vertex program into PREDIcT.
//
// The paper's methodology is not limited to the five built-in algorithms:
// anything that (a) runs as a BSP vertex program and (b) declares its
// transform function can be predicted. This example implements Random
// Walk with Restart (RWR) proximity — an algorithm the paper's §5.3
// expects to benefit from walk-based sampling — and predicts its runtime.
//
// RWR's convergence threshold is an absolute aggregate (like PageRank's),
// so its transform function scales tau by 1/sr.
//
//	go run ./examples/customalgorithm
package main

import (
	"fmt"
	"log"

	"predict"
	"predict/internal/algorithms"
	"predict/internal/bsp"
	"predict/internal/graph"
)

// rwr computes Random Walk with Restart proximity from a seed vertex: the
// stationary probability of a walker that follows out-edges and restarts
// at the seed with probability restart.
type rwr struct {
	Seed    graph.VertexID
	Restart float64
	Tau     float64
}

// Name implements predict.Algorithm.
func (r rwr) Name() string { return "RandomWalkWithRestart" }

// Transformed implements predict.Algorithm: the threshold is an absolute
// aggregate tuned to graph size, so it scales by 1/sr — the same default
// rule as PageRank. The seed must also be remapped into the sample; the
// closest hub is a faithful stand-in, so we keep vertex 0 of the sample
// (BRJ visits hubs first).
func (r rwr) Transformed(sr float64) algorithms.Algorithm {
	r.Tau = r.Tau / sr
	r.Seed = 0
	return r
}

// Run implements predict.Algorithm.
func (r rwr) Run(g *graph.Graph, cfg bsp.Config) (*algorithms.RunInfo, error) {
	prog := &rwrProgram{cfg: r, n: float64(g.NumVertices())}
	eng := bsp.NewEngine[float64, float64](g, prog, cfg)
	eng.SetCombiner(func(a, b float64) float64 { return a + b })
	n := float64(g.NumVertices())
	eng.SetHalt(func(si bsp.SuperstepInfo) bool {
		return si.Superstep > 0 && si.Aggregates["rwr.delta"]/n < r.Tau
	})
	res, err := eng.Run()
	if err != nil {
		return nil, err
	}
	return &algorithms.RunInfo{
		Algorithm:  r.Name(),
		Iterations: res.Supersteps,
		Converged:  res.Converged,
		Profile:    res.Profile,
	}, nil
}

type rwrProgram struct {
	cfg rwr
	n   float64
}

func (p *rwrProgram) Init(_ *graph.Graph, id bsp.VertexID) float64 {
	if id == p.cfg.Seed {
		return 1
	}
	return 0
}

func (p *rwrProgram) Compute(ctx *bsp.Context[float64], id bsp.VertexID, val *float64, msgs []float64) {
	if ctx.Superstep() > 0 {
		var sum float64
		for _, m := range msgs {
			sum += m
		}
		next := (1 - p.cfg.Restart) * sum
		if id == p.cfg.Seed {
			next += p.cfg.Restart
		}
		delta := next - *val
		if delta < 0 {
			delta = -delta
		}
		ctx.AddToAggregate("rwr.delta", delta)
		*val = next
	}
	if deg := ctx.Graph().OutDegree(id); deg > 0 && *val > 0 {
		ctx.SendToNeighbors(*val / float64(deg))
	}
}

func (p *rwrProgram) MessageBytes(float64) int { return 8 }

func main() {
	g := predict.Dataset("TW").Generate(0.3, 17)
	cfg := predict.DefaultCluster()

	// Proximity from the biggest hub.
	seed := graph.VertexID(0)
	best := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.OutDegree(graph.VertexID(v)); d > best {
			best, seed = d, graph.VertexID(v)
		}
	}
	alg := rwr{Seed: seed, Restart: 0.15, Tau: predict.PageRankTau(0.001, g.NumVertices())}
	fmt.Printf("custom algorithm %q on Twitter-sim (%d vertices), seed hub %d (degree %d)\n\n",
		alg.Name(), g.NumVertices(), seed, best)

	p := predict.NewPredictor(predict.Options{
		Sampling:       predict.SamplingOptions{Ratio: 0.1, Seed: 23},
		BSP:            cfg,
		TrainingRatios: []float64{0.05, 0.1, 0.15, 0.2},
	})
	pred, err := p.Predict(alg, g)
	if err != nil {
		log.Fatalf("predict: %v", err)
	}
	fmt.Println(predict.FormatPrediction(pred))

	actual, err := alg.Run(g, cfg)
	if err != nil {
		log.Fatalf("actual: %v", err)
	}
	ev := predict.Evaluate(pred, actual)
	fmt.Printf("\nactual: %d iterations, %.0f s superstep phase\n",
		ev.ActualIterations, ev.ActualSeconds)
	fmt.Printf("errors: iterations %+.1f%%, runtime %+.1f%%\n",
		100*ev.IterationsError, 100*ev.RuntimeError)
}
