// Package features defines the key input features of the paper's Table 1,
// extracts per-iteration feature vectors from BSP run profiles, and
// extrapolates them from sample scale to full-graph scale (§3.3–3.4).
package features

import (
	"fmt"

	"predict/internal/bsp"
)

// Name identifies a key input feature (Table 1).
type Name string

// The feature pool of Table 1. NumIter is not a per-iteration feature: the
// transform function preserves the iteration count, so it enters prediction
// implicitly (one cost-model invocation per sample-run iteration).
const (
	ActVert    Name = "ActVert"    // number of active vertices
	TotVert    Name = "TotVert"    // number of total vertices
	LocMsg     Name = "LocMsg"     // number of local messages
	RemMsg     Name = "RemMsg"     // number of remote messages
	LocMsgSize Name = "LocMsgSize" // bytes of local messages
	RemMsgSize Name = "RemMsgSize" // bytes of remote messages
	AvgMsgSize Name = "AvgMsgSize" // average message size (not extrapolated)
)

// pool is the candidate features in canonical column order.
var pool = [...]Name{ActVert, TotVert, LocMsg, RemMsg, LocMsgSize, RemMsgSize, AvgMsgSize}

// PoolSize is the length of Pool() and of every Vector.
const PoolSize = len(pool)

// Pool returns the candidate features for the cost model, in canonical
// column order.
func Pool() []Name {
	return append([]Name(nil), pool[:]...)
}

// Index returns the canonical column index of a feature name.
func Index(n Name) (int, error) {
	for i, p := range pool {
		if p == n {
			return i, nil
		}
	}
	return -1, fmt.Errorf("features: unknown feature %q", n)
}

// Vector is a feature vector in Pool() column order.
type Vector []float64

// IterationFeatures pairs one iteration's feature vector with that
// iteration's simulated runtime (the regression target).
type IterationFeatures struct {
	Vector  Vector
	Seconds float64
}

// Mode selects how per-worker loads reduce to one vector per iteration.
type Mode int

const (
	// ModeCriticalShare scales graph-level totals by the critical-path
	// worker's outbound-edge share — the paper's critical-path modeling
	// (§3.4). This is the default.
	ModeCriticalShare Mode = iota
	// ModeMeanWorker scales totals by 1/workers, ignoring skew (ablation).
	ModeMeanWorker
)

// shareFor returns the scaling factor a mode applies to totals.
func shareFor(mode Mode, p *bsp.Profile) float64 {
	if mode == ModeCriticalShare {
		return p.CriticalShare()
	}
	if p.NumWorkers == 0 {
		return 1
	}
	return 1 / float64(p.NumWorkers)
}

// FromProfile extracts one IterationFeatures per superstep of a profiled
// run. The feature vector is the graph-level totals scaled per the mode;
// the target is the superstep's simulated seconds.
func FromProfile(p *bsp.Profile, mode Mode) []IterationFeatures {
	share := shareFor(mode, p)
	out := make([]IterationFeatures, len(p.Supersteps))
	for i := range p.Supersteps {
		sp := &p.Supersteps[i]
		tot := sp.Total()
		v := make(Vector, PoolSize)
		v[0] = float64(tot.ActiveVertices) * share
		v[1] = float64(tot.TotalVertices) * share
		v[2] = float64(tot.LocalMessages) * share
		v[3] = float64(tot.RemoteMessages) * share
		v[4] = float64(tot.LocalMessageBytes) * share
		v[5] = float64(tot.RemoteMessageBytes) * share
		if msgs := tot.Messages(); msgs > 0 {
			v[6] = float64(tot.MessageBytes()) / float64(msgs) // not share-scaled
		}
		out[i] = IterationFeatures{Vector: v, Seconds: sp.Seconds}
	}
	return out
}

// Scale holds the extrapolation factors of §3.4: eV = |V_G|/|V_S| for
// vertex-driven features and eE = |E_G|/|E_S| for edge-driven features.
type Scale struct {
	EV float64
	EE float64
}

// NewScale builds extrapolation factors from graph and sample sizes.
func NewScale(graphVertices, sampleVertices int, graphEdges, sampleEdges int64) (Scale, error) {
	if sampleVertices == 0 || sampleEdges == 0 {
		return Scale{}, fmt.Errorf("features: empty sample (v=%d, e=%d)", sampleVertices, sampleEdges)
	}
	return Scale{
		EV: float64(graphVertices) / float64(sampleVertices),
		EE: float64(graphEdges) / float64(sampleEdges),
	}, nil
}

// ApplyInto writes into dst the sample-run vector v extrapolated to
// full-graph scale: vertex-driven features (ActVert, TotVert) scale by eV,
// message features by eE, and AvgMsgSize is preserved (Table 1's
// "Extrapolation" column). share then moves every load-dependent feature
// from the sample graph's critical-path share to the full graph's.
func (s Scale) ApplyInto(dst, v Vector, share float64) {
	dst[0] = v[0] * s.EV * share // ActVert
	dst[1] = v[1] * s.EV * share // TotVert
	dst[2] = v[2] * s.EE * share // LocMsg
	dst[3] = v[3] * s.EE * share // RemMsg
	dst[4] = v[4] * s.EE * share // LocMsgSize
	dst[5] = v[5] * s.EE * share // RemMsgSize
	dst[6] = v[6]                // AvgMsgSize: load-independent, not extrapolated
}
