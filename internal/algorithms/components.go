package algorithms

import (
	"predict/internal/bsp"
	"predict/internal/graph"
)

// ConnectedComponents labels weakly connected components by HashMin label
// propagation: every vertex repeatedly adopts the smallest vertex ID seen
// in its neighborhood. Per-iteration work collapses as labels stabilize —
// the paper's example of sparse computation with "up to 100x runtime
// variability among consecutive iterations" (§1).
//
// The algorithm runs to its natural fixed point (no updates -> no messages
// -> all vertices halted), so there is no convergence threshold and the
// transform function is the identity.
type ConnectedComponents struct {
	// MaxIterations caps the run; zero selects 300.
	MaxIterations int
}

// NewConnectedComponents returns the default configuration.
func NewConnectedComponents() ConnectedComponents {
	return ConnectedComponents{MaxIterations: 300}
}

// Name implements Algorithm.
func (c ConnectedComponents) Name() string { return "ConnectedComponents" }

// Transformed implements Algorithm: fixed-point convergence needs no
// parameter scaling.
func (c ConnectedComponents) Transformed(float64) Algorithm { return c }

// Run implements Algorithm. The input is symmetrized so the labels are
// weak components, as in the paper's evaluation.
func (c ConnectedComponents) Run(g *graph.Graph, cfg bsp.Config) (*RunInfo, error) {
	ri, _, err := c.RunLabels(g, cfg)
	return ri, err
}

// RunLabels executes the algorithm and returns the per-vertex component
// labels (the smallest vertex ID in each component).
func (c ConnectedComponents) RunLabels(g *graph.Graph, cfg bsp.Config) (*RunInfo, []graph.VertexID, error) {
	if c.MaxIterations > 0 {
		cfg.MaxSupersteps = c.MaxIterations
	} else if cfg.MaxSupersteps == 0 {
		cfg.MaxSupersteps = 300
	}
	ug := g.Undirected()
	prog := &ccProgram{}
	eng := bsp.NewEngine[graph.VertexID, graph.VertexID](ug, prog, cfg)
	// A vertex needs only the smallest label it was sent.
	eng.SetCombiner(func(a, b graph.VertexID) graph.VertexID {
		if a < b {
			return a
		}
		return b
	})
	res, err := eng.Run()
	if err != nil {
		return nil, nil, err
	}
	return info(c.Name(), res), res.Values, nil
}

type ccProgram struct{}

func (ccProgram) Init(_ *graph.Graph, id bsp.VertexID) graph.VertexID { return id }

func (ccProgram) Compute(ctx *bsp.Context[graph.VertexID], id bsp.VertexID, label *graph.VertexID, msgs []graph.VertexID) {
	if ctx.Superstep() == 0 {
		ctx.SendToNeighbors(*label)
		ctx.VoteToHalt()
		return
	}
	best := *label
	for _, m := range msgs {
		if m < best {
			best = m
		}
	}
	if best < *label {
		*label = best
		ctx.SendToNeighbors(best)
	}
	ctx.VoteToHalt()
}

func (ccProgram) MessageBytes(graph.VertexID) int { return 4 }

// FixedMessageBytes implements bsp.FixedSizeMessager: labels are 4-byte
// vertex IDs.
func (ccProgram) FixedMessageBytes() int { return 4 }
