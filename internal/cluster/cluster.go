// Package cluster simulates the execution environment of the paper's
// testbed: a 10-node Hadoop/Giraph cluster with 29 workers, 1 Gbps links
// and network-dominated superstep costs.
//
// The CostOracle is the ground truth of the simulation: it converts
// per-worker superstep load counters into simulated seconds. Its
// coefficients are deliberately hidden from the prediction pipeline
// (internal/costmodel), which must recover them by fitting a regression to
// profiled sample runs — the same inference problem PREDIcT faces on real
// hardware. The oracle includes a fixed per-superstep barrier overhead and
// seeded multiplicative noise; the former reproduces the paper's
// observation that very short sample runs over-estimate cost factors
// (§5.2, top-k on LiveJournal), the latter bounds attainable model fit
// (R² < 1).
package cluster

import (
	"math/rand/v2"
)

// WorkerLoad holds the per-worker, per-superstep counters that Giraph's
// instrumented code path exposes — exactly the paper's Table 1 key input
// features at worker granularity.
type WorkerLoad struct {
	// ActiveVertices counts compute-function invocations (vertices doing
	// actual work this superstep).
	ActiveVertices int64
	// TotalVertices counts vertices allocated to the worker.
	TotalVertices int64
	// LocalMessages/RemoteMessages count messages sent to vertices on the
	// same/another worker.
	LocalMessages  int64
	RemoteMessages int64
	// LocalMessageBytes/RemoteMessageBytes are the corresponding payload
	// byte counts.
	LocalMessageBytes  int64
	RemoteMessageBytes int64
}

// Add accumulates o into l.
func (l *WorkerLoad) Add(o WorkerLoad) {
	l.ActiveVertices += o.ActiveVertices
	l.TotalVertices += o.TotalVertices
	l.LocalMessages += o.LocalMessages
	l.RemoteMessages += o.RemoteMessages
	l.LocalMessageBytes += o.LocalMessageBytes
	l.RemoteMessageBytes += o.RemoteMessageBytes
}

// Messages returns total messages sent by the worker this superstep.
func (l WorkerLoad) Messages() int64 { return l.LocalMessages + l.RemoteMessages }

// MessageBytes returns total payload bytes sent by the worker.
func (l WorkerLoad) MessageBytes() int64 { return l.LocalMessageBytes + l.RemoteMessageBytes }

// CostOracle converts worker loads into simulated seconds. All rates are
// seconds per unit. It plays the role of the physical cluster: the "actual
// runtime" of every experiment in this repository is the oracle's output.
type CostOracle struct {
	// PerActiveVertex is the fixed compute cost of one vertex-program
	// invocation (the paper's "constant cost factor" for local computation).
	PerActiveVertex float64
	// PerVertexScan is the per-allocated-vertex bookkeeping cost paid every
	// superstep regardless of activity.
	PerVertexScan float64
	// PerLocalMessage/PerLocalByte price messages that stay on the worker
	// (memory copies).
	PerLocalMessage float64
	PerLocalByte    float64
	// PerRemoteMessage/PerRemoteByte price messages crossing the network;
	// on a 1 Gbps cluster these dominate (assumption v, §3.1).
	PerRemoteMessage float64
	PerRemoteByte    float64
	// BarrierOverhead is the fixed synchronization cost per superstep
	// (master coordination + barrier latency).
	BarrierOverhead float64
	// SetupSeconds is the fixed job setup cost (Hadoop job launch, worker
	// allocation). Dominates very short sample runs, as in Table 3.
	SetupSeconds float64
	// ReadPerVertex/ReadPerEdge price loading the input graph from the
	// distributed filesystem into worker memory.
	ReadPerVertex float64
	ReadPerEdge   float64
	// WritePerVertex prices writing the output back.
	WritePerVertex float64
	// NoiseStdDev is the relative standard deviation of multiplicative
	// noise applied to each worker's superstep time.
	NoiseStdDev float64
	// StragglerProb/StragglerFactor model the occasional slow worker
	// (JVM pauses, disk contention): with StragglerProb a worker's
	// superstep time is multiplied by StragglerFactor. Stragglers give
	// the critical-path time a heavy upper tail, which is what keeps
	// real cost-model fits below R² = 1 (the paper reports 0.82–0.99).
	StragglerProb   float64
	StragglerFactor float64
	// MemoryBudgetBytes caps the simulated cluster memory available for
	// graph + in-flight messages; exceeding it aborts the run like
	// Giraph's OOM on the Twitter dataset (§5, "Memory Limits").
	// Zero means unlimited.
	MemoryBudgetBytes int64
}

// DefaultOracle returns cost factors loosely calibrated so that full runs
// of the dataset stand-ins land in the hundreds-to-thousands of simulated
// seconds, matching the magnitude of the paper's Table 3.
func DefaultOracle() CostOracle {
	return CostOracle{
		PerActiveVertex:   5.0e-6,
		PerVertexScan:     2.0e-7,
		PerLocalMessage:   1.5e-5,
		PerLocalByte:      4.0e-7,
		PerRemoteMessage:  6.0e-5,
		PerRemoteByte:     3.0e-6,
		BarrierOverhead:   0.9,
		SetupSeconds:      38,
		ReadPerVertex:     9.0e-6,
		ReadPerEdge:       1.1e-6,
		WritePerVertex:    6.0e-6,
		NoiseStdDev:       0.05,
		StragglerProb:     0.03,
		StragglerFactor:   1.6,
		MemoryBudgetBytes: 400 << 20, // reproduces Giraph's OOM on Twitter-scale message loads
	}
}

// WorkerSeconds prices one worker's superstep. The rng applies
// multiplicative noise; pass nil for the noiseless expectation.
func (o CostOracle) WorkerSeconds(l WorkerLoad, rng *rand.Rand) float64 {
	t := o.PerActiveVertex*float64(l.ActiveVertices) +
		o.PerVertexScan*float64(l.TotalVertices) +
		o.PerLocalMessage*float64(l.LocalMessages) +
		o.PerLocalByte*float64(l.LocalMessageBytes) +
		o.PerRemoteMessage*float64(l.RemoteMessages) +
		o.PerRemoteByte*float64(l.RemoteMessageBytes)
	if rng != nil && o.NoiseStdDev > 0 {
		mul := 1 + o.NoiseStdDev*rng.NormFloat64()
		if mul < 0.5 {
			mul = 0.5 // clamp pathological draws
		}
		t *= mul
	}
	if rng != nil && o.StragglerProb > 0 && rng.Float64() < o.StragglerProb {
		t *= o.StragglerFactor
	}
	return t
}

// SuperstepSeconds prices a whole superstep: the slowest worker (critical
// path, §3.3 "synchronization phase") plus the barrier overhead.
func (o CostOracle) SuperstepSeconds(workerSeconds []float64) float64 {
	maxT := 0.0
	for _, t := range workerSeconds {
		if t > maxT {
			maxT = t
		}
	}
	return maxT + o.BarrierOverhead
}

// ReadSeconds prices the read phase for a graph of n vertices and m edges
// split across workers.
func (o CostOracle) ReadSeconds(n, m int64, workers int) float64 {
	if workers < 1 {
		workers = 1
	}
	return (o.ReadPerVertex*float64(n) + o.ReadPerEdge*float64(m)) / float64(workers)
}

// WriteSeconds prices the write phase.
func (o CostOracle) WriteSeconds(n int64, workers int) float64 {
	if workers < 1 {
		workers = 1
	}
	return o.WritePerVertex * float64(n) / float64(workers)
}
