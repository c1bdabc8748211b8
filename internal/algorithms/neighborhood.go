package algorithms

import (
	"math"
	"math/bits"

	"predict/internal/bsp"
	"predict/internal/graph"
)

// nhSketches is the number of Flajolet–Martin bitmasks per vertex. Multiple
// sketches are averaged for accuracy, as in HADI/ANF.
const nhSketches = 8

// NeighborhoodEstimation approximates, for every vertex, the number of
// vertices reachable from it (its expanding neighborhood) using
// Flajolet–Martin sketches propagated hop by hop — the HADI/ANF scheme the
// paper's evaluation uses for "neighborhood estimation" (the LinkedIn
// "professionals reachable within a few hops" workload from §1).
//
// A vertex whose sketch union stops changing sends nothing, so iterations
// track the effective diameter. Convergence: the fraction of vertices
// whose sketch changed drops below Tau (a ratio, identity transform), or
// the natural fixed point.
type NeighborhoodEstimation struct {
	// Tau is the convergence threshold on changedVertices/totalVertices;
	// zero runs to the fixed point.
	Tau float64
	// MaxIterations caps the run; zero selects 100.
	MaxIterations int
}

// NewNeighborhoodEstimation returns the default configuration (τ=0.001).
func NewNeighborhoodEstimation() NeighborhoodEstimation {
	return NeighborhoodEstimation{Tau: 0.001, MaxIterations: 100}
}

// Name implements Algorithm.
func (n NeighborhoodEstimation) Name() string { return "NeighborhoodEstimation" }

// Transformed implements Algorithm: ratio threshold, identity transform.
func (n NeighborhoodEstimation) Transformed(float64) Algorithm { return n }

// Run implements Algorithm.
func (n NeighborhoodEstimation) Run(g *graph.Graph, cfg bsp.Config) (*RunInfo, error) {
	ri, _, err := n.RunEstimates(g, cfg)
	return ri, err
}

// nhMsg is a set of FM bitmasks in flight.
type nhMsg [nhSketches]uint64

// nhValue is the per-vertex sketch state.
type nhValue struct {
	sketch nhMsg
}

// RunEstimates executes the algorithm and returns the per-vertex
// neighborhood size estimates. Estimates count vertices *reachable from*
// each vertex, so sketches flow backwards along edges: the flood runs on
// the transpose graph.
func (n NeighborhoodEstimation) RunEstimates(g *graph.Graph, cfg bsp.Config) (*RunInfo, []float64, error) {
	if n.MaxIterations > 0 {
		cfg.MaxSupersteps = n.MaxIterations
	} else if cfg.MaxSupersteps == 0 {
		cfg.MaxSupersteps = 100
	}
	prog := &nhProgram{}
	eng := bsp.NewEngine[nhValue, nhMsg](g.Reverse(), prog, cfg)
	// A vertex needs only the union of the Flajolet–Martin sketches it
	// was sent.
	eng.SetCombiner(func(a, b nhMsg) nhMsg {
		for i := range a {
			a[i] |= b[i]
		}
		return a
	})
	nv := float64(g.NumVertices())
	tau := n.Tau
	if tau > 0 {
		eng.SetHalt(func(si bsp.SuperstepInfo) bool {
			if si.Superstep < 1 {
				return false
			}
			return si.Aggregates[aggNHChanged]/nv < tau
		})
	}
	res, err := eng.Run()
	if err != nil {
		return nil, nil, err
	}
	ests := make([]float64, len(res.Values))
	for v := range res.Values {
		ests[v] = fmEstimate(res.Values[v].sketch)
	}
	return info(n.Name(), res), ests, nil
}

const aggNHChanged = "nh.changed"

type nhProgram struct{}

// splitmix64 is the standard avalanche mixer used for per-vertex hashes.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (np *nhProgram) Init(_ *graph.Graph, id bsp.VertexID) nhValue {
	var v nhValue
	for s := 0; s < nhSketches; s++ {
		h := splitmix64(uint64(id)<<8 | uint64(s))
		// Geometric bit position: trailing zeros gives P(pos = k) = 2^-(k+1).
		pos := bits.TrailingZeros64(h)
		if pos > 62 {
			pos = 62
		}
		v.sketch[s] = 1 << uint(pos)
	}
	return v
}

func (np *nhProgram) Compute(ctx *bsp.Context[nhMsg], id bsp.VertexID, v *nhValue, msgs []nhMsg) {
	if ctx.Superstep() == 0 {
		ctx.SendToNeighbors(v.sketch)
		ctx.VoteToHalt()
		return
	}
	changed := false
	for _, m := range msgs {
		for i := range v.sketch {
			if v.sketch[i]|m[i] != v.sketch[i] {
				v.sketch[i] |= m[i]
				changed = true
			}
		}
	}
	if changed {
		ctx.AddToAggregate(aggNHChanged, 1)
		ctx.SendToNeighbors(v.sketch)
	}
	ctx.VoteToHalt()
}

func (np *nhProgram) MessageBytes(nhMsg) int { return 8 * nhSketches }

// FixedMessageBytes implements bsp.FixedSizeMessager: a sketch message is
// nhSketches 64-bit bitmasks.
func (np *nhProgram) FixedMessageBytes() int { return 8 * nhSketches }

// fmEstimate converts FM bitmasks to a cardinality estimate: 2^R / 0.77351
// where R is the average position of the lowest zero bit.
func fmEstimate(sketch nhMsg) float64 {
	var total float64
	for _, bm := range sketch {
		r := bits.TrailingZeros64(^bm)
		total += float64(r)
	}
	avg := total / float64(nhSketches)
	return math.Pow(2, avg) / 0.77351
}
