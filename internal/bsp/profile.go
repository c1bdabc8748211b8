package bsp

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"predict/internal/cluster"
)

// SuperstepProfile records one superstep's measurements.
type SuperstepProfile struct {
	// Workers holds per-worker load counters (Table 1 features at worker
	// granularity).
	Workers []cluster.WorkerLoad
	// WorkerSeconds holds the oracle-priced per-worker times.
	WorkerSeconds []float64
	// Seconds is the superstep's simulated runtime: critical-path worker
	// plus barrier overhead.
	Seconds float64
	// Aggregates holds merged aggregator values.
	Aggregates map[string]float64
	// WallNanos is the real (host) compute time of the superstep.
	WallNanos int64
}

// Total returns the sum of all worker loads.
func (s *SuperstepProfile) Total() cluster.WorkerLoad {
	var t cluster.WorkerLoad
	for _, w := range s.Workers {
		t.Add(w)
	}
	return t
}

// Profile aggregates the measurements of a whole run. It is the raw
// material for feature extraction (internal/features) and cost-model
// training (internal/costmodel).
type Profile struct {
	NumWorkers    int
	GraphVertices int64
	GraphEdges    int64
	// WorkerVertices/WorkerOutEdges describe the partitioning: vertices
	// and outbound edges allocated to each worker. The worker with the
	// most outbound edges is the predicted critical path (§3.4).
	WorkerVertices []int64
	WorkerOutEdges []int64
	// Supersteps holds one entry per executed superstep.
	Supersteps []SuperstepProfile
	// Phase times in simulated seconds (§2.2 phase breakdown).
	SetupSeconds float64
	ReadSeconds  float64
	WriteSeconds float64
}

// CriticalWorker returns the index of the worker with the most outbound
// edges — the paper's static critical-path estimate, computable in the
// read phase before execution.
func (p *Profile) CriticalWorker() int {
	best, bestEdges := 0, int64(-1)
	for w, e := range p.WorkerOutEdges {
		if e > bestEdges {
			best, bestEdges = w, e
		}
	}
	return best
}

// CriticalShare returns the critical worker's fraction of all outbound
// edges. Multiplying graph-level feature totals by this share approximates
// the critical worker's load.
func (p *Profile) CriticalShare() float64 {
	if p.GraphEdges == 0 {
		return 0
	}
	return float64(p.WorkerOutEdges[p.CriticalWorker()]) / float64(p.GraphEdges)
}

// SuperstepPhaseSeconds sums the simulated seconds of all supersteps — the
// phase PREDIcT predicts (§2.2).
func (p *Profile) SuperstepPhaseSeconds() float64 {
	var t float64
	for i := range p.Supersteps {
		t += p.Supersteps[i].Seconds
	}
	return t
}

// TotalSeconds is the end-to-end simulated runtime including setup, read
// and write phases (the quantity in Table 3).
func (p *Profile) TotalSeconds() float64 {
	return p.SetupSeconds + p.ReadSeconds + p.SuperstepPhaseSeconds() + p.WriteSeconds
}

// Fingerprint digests every simulation-visible bit of the profile into a
// short hex string: partitioning, per-superstep per-worker counters,
// worker seconds, superstep seconds and aggregates (exact float64 bits),
// and the phase times. WallNanos is excluded — it is host timing, not
// simulation output. Two runs are bit-identical iff their fingerprints
// match, which is what the engine-determinism regression tests pin.
func (p *Profile) Fingerprint() string {
	h := fnv.New64a()
	var buf [8]byte
	wu := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wi := func(v int64) { wu(uint64(v)) }
	wf := func(v float64) { wu(math.Float64bits(v)) }

	wi(int64(p.NumWorkers))
	wi(p.GraphVertices)
	wi(p.GraphEdges)
	for _, v := range p.WorkerVertices {
		wi(v)
	}
	for _, v := range p.WorkerOutEdges {
		wi(v)
	}
	wf(p.SetupSeconds)
	wf(p.ReadSeconds)
	wf(p.WriteSeconds)
	for i := range p.Supersteps {
		sp := &p.Supersteps[i]
		for _, l := range sp.Workers {
			wi(l.ActiveVertices)
			wi(l.TotalVertices)
			wi(l.LocalMessages)
			wi(l.RemoteMessages)
			wi(l.LocalMessageBytes)
			wi(l.RemoteMessageBytes)
		}
		for _, s := range sp.WorkerSeconds {
			wf(s)
		}
		wf(sp.Seconds)
		names := make([]string, 0, len(sp.Aggregates))
		for k := range sp.Aggregates {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			h.Write([]byte(k))
			wf(sp.Aggregates[k])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
