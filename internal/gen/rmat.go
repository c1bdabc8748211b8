package gen

import (
	"math"

	"predict/internal/graph"
)

// The recursive-quadrant probabilities of every RMAT graph (A is the
// top-left quadrant) and the per-level noise factor. The mass concentrates
// in A, as in web graphs, giving tight communities and heavy-tailed
// degrees; the noise perturbs the probabilities at each recursion level by
// up to ±rmatNoise/2, avoiding artificial staircase degree distributions.
// They are typed so that the normalisation below rounds each step to
// float64: every generated graph depends on those bits.
const (
	rmatA, rmatB, rmatC, rmatD float64 = 0.57, 0.19, 0.19, 0.05
	rmatNoise                  float64 = 0.1
)

// RMAT builds a directed graph on n vertices with approximately
// n*avgOutDeg edges using the recursive matrix method. Edges whose
// endpoints fall outside [0, n) in the padded 2^scale space are
// rejection-resampled, so the advertised vertex count is exact.
func RMAT(n int, avgOutDeg float64, seed uint64) *graph.Graph {
	rng := rngFor(seed)
	scale := 0
	for (1 << scale) < n {
		scale++
	}
	target := int64(float64(n) * avgOutDeg)
	b := graph.NewBuilder(n)

	total := rmatA + rmatB + rmatC + rmatD
	a, bb, c := rmatA/total, rmatB/total, rmatC/total

	var added int64
	attempts := target * 4 // bail-out guard for degenerate inputs
	for added < target && attempts > 0 {
		attempts--
		src, dst := 0, 0
		for level := 0; level < scale; level++ {
			// Perturb quadrant probabilities at each level.
			mul := 1 - rmatNoise/2 + rmatNoise*rng.Float64()
			na := math.Min(a*mul, 1)
			nb := math.Min(bb*mul, 1)
			nc := math.Min(c*mul, 1)
			r := rng.Float64()
			half := 1 << (scale - level - 1)
			switch {
			case r < na:
				// top-left: nothing to add
			case r < na+nb:
				dst += half
			case r < na+nb+nc:
				src += half
			default:
				src += half
				dst += half
			}
		}
		if src >= n || dst >= n || src == dst {
			continue
		}
		b.AddEdge(graph.VertexID(src), graph.VertexID(dst))
		added++
	}
	g, err := b.Build()
	if err != nil {
		panic("gen: RMAT: " + err.Error())
	}
	return g
}
