// Package predict is a from-scratch Go reproduction of PREDIcT ("Towards
// Predicting the Runtime of Large Scale Iterative Analytics", Popescu et
// al., VLDB 2013): an experimental methodology that predicts the number of
// iterations and the runtime of iterative graph algorithms (PageRank,
// semi-clustering, top-k ranking, connected components, neighborhood
// estimation) executed on a Bulk Synchronous Parallel engine.
//
// The pipeline (paper Figure 1):
//
//  1. Draw a structure-preserving sample of the input graph (Biased
//     Random Jump by default).
//  2. Apply the algorithm's transform function to its convergence
//     parameters (e.g. PageRank's τ_S = τ_G/sr) and run it on the sample,
//     profiling per-iteration key input features (active vertices,
//     local/remote message counts and bytes).
//  3. Extrapolate the features to full-graph scale (eV = |V_G|/|V_S| for
//     vertex-driven features, eE = |E_G|/|E_S| for message features).
//  4. Translate features into per-iteration runtime with a cost model
//     fitted by multivariate linear regression with forward feature
//     selection, trained on sample runs and optional historical runs.
//
// Quickstart:
//
//	g := predict.Dataset("Wiki").Generate(0.25, 1)
//	pr := predict.NewPageRank()
//	pr.Tau = predict.PageRankTau(0.001, g.NumVertices())
//	p := predict.NewPredictor(predict.Options{
//		Sampling:       predict.SamplingOptions{Ratio: 0.1, Seed: 7},
//		BSP:            predict.DefaultCluster(),
//		TrainingRatios: []float64{0.05, 0.1, 0.15, 0.2},
//	})
//	pred, err := p.Predict(pr, g)
//	// pred.Iterations, pred.SuperstepSeconds, pred.Model.R2() ...
//
// The repository substitutes the paper's 10-node Giraph/Hadoop testbed
// with an in-process BSP engine priced by a hidden cost oracle, and the
// four real datasets with seeded synthetic stand-ins; see DESIGN.md for
// the substitution arguments and EXPERIMENTS.md for paper-vs-measured
// results of every table and figure.
//
// For repeated or what-if queries, cmd/predictd serves predictions over
// HTTP with cached cost models (internal/service): the expensive half of
// the pipeline (sample runs + regression) runs once per distinct
// configuration and every later query pays only extrapolation.
package predict

import (
	"fmt"
	"io"

	"predict/internal/algorithms"
	"predict/internal/bsp"
	"predict/internal/cluster"
	"predict/internal/core"
	"predict/internal/gen"
	"predict/internal/graph"
	"predict/internal/sampling"
)

// Graph is an immutable directed graph in CSR form.
type Graph = graph.Graph

// Prediction pipeline types.
type (
	// Options configures a Predictor (sampling, environment, training).
	Options = core.Options
	// Predictor runs the PREDIcT pipeline.
	Predictor = core.Predictor
	// Prediction is the pipeline outcome: iterations, per-iteration and
	// total runtime estimates, the fitted cost model and diagnostics.
	Prediction = core.Prediction
	// Evaluation holds the paper's error metrics for one prediction.
	Evaluation = core.Evaluation
	// Algorithm is the plug-in interface for predictable algorithms.
	Algorithm = algorithms.Algorithm
	// RunInfo is a profiled algorithm run.
	RunInfo = algorithms.RunInfo
)

// Execution environment types.
type (
	// ClusterConfig parameterizes the BSP engine (workers, oracle, seed).
	ClusterConfig = bsp.Config
	// SamplingMethod selects RJ, BRJ, MHRW or UNI.
	SamplingMethod = sampling.Method
	// SamplingOptions carries the sampling ratio and seed.
	SamplingOptions = sampling.Options
	// DatasetSpec is a registered stand-in for a paper dataset.
	DatasetSpec = gen.Dataset
)

// PageRankConfig is the PageRank algorithm (§4.1). The other paper
// algorithms are constructed by name with AlgorithmByName.
type PageRankConfig = algorithms.PageRank

// NewPredictor returns a Predictor with the given options.
func NewPredictor(opts Options) *Predictor { return core.New(opts) }

// Evaluate compares a prediction against a profiled actual run, returning
// the paper's signed relative errors.
func Evaluate(pred *Prediction, actual *RunInfo) Evaluation {
	return core.Evaluate(pred, actual)
}

// NewPageRank returns PageRank with the paper's defaults (d = 0.85).
func NewPageRank() PageRankConfig { return algorithms.NewPageRank() }

// AlgorithmByName constructs a paper algorithm from its name or short tag
// (PR, SC, TOPK, CC, NH).
func AlgorithmByName(name string) (Algorithm, error) { return algorithms.ByName(name) }

// PageRankTau returns the paper's convergence threshold τ = ε/N (§5.1).
func PageRankTau(epsilon float64, numVertices int) float64 {
	return algorithms.TauForTolerance(epsilon, numVertices)
}

// PageRankIterationBound returns the Langville & Meyer analytical upper
// bound on PageRank iterations, the baseline PREDIcT beats (§5.1).
func PageRankIterationBound(epsilon, damping float64) int {
	return algorithms.PageRankIterations(epsilon, damping)
}

// DefaultCluster returns the default simulated execution environment:
// 8 workers priced by the default cost oracle.
func DefaultCluster() ClusterConfig {
	o := cluster.DefaultOracle()
	return ClusterConfig{Workers: bsp.DefaultWorkers, Oracle: &o}
}

// Dataset returns the stand-in dataset spec for a paper prefix (LJ, Wiki,
// TW, UK). It panics on unknown prefixes; use Datasets to enumerate.
func Dataset(prefix string) DatasetSpec {
	ds, err := gen.ByPrefix(prefix)
	if err != nil {
		panic(err)
	}
	return ds
}

// Datasets lists the four stand-ins in the paper's Table 2 order.
func Datasets() []DatasetSpec { return gen.StandIns() }

// ReadGraph parses the edge-list format produced by WriteGraph. It reads
// all of r into memory, then parses it in parallel at GOMAXPROCS; the
// Graph is bit-identical at any parallelism.
func ReadGraph(r io.Reader) (*Graph, error) { return graph.LoadEdgeList(r, graph.LoadOptions{}) }

// WriteGraph writes g as a plain-text edge list.
func WriteGraph(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// LoadGraphFile loads a graph from disk, auto-detecting binary CSR
// snapshots (by magic number) and plain-text edge lists.
func LoadGraphFile(path string) (*Graph, error) {
	return graph.LoadFile(path, graph.LoadOptions{})
}

// WriteGraphSnapshot writes g in the binary CSR snapshot format: a
// versioned, checksummed image of the CSR arrays that reloads in O(bytes)
// with no parsing (LoadGraphFile reads it back). See DESIGN.md §9 for the
// wire layout.
func WriteGraphSnapshot(w io.Writer, g *Graph) error { return graph.WriteSnapshot(w, g) }

// FormatPrediction renders a prediction as a short human-readable report.
func FormatPrediction(p *Prediction) string {
	sel := ""
	for i, f := range p.Model.SelectedFeatures() {
		if i > 0 {
			sel += ", "
		}
		sel += string(f)
	}
	return fmt.Sprintf(
		"algorithm            %s\n"+
			"predicted iterations %d\n"+
			"predicted runtime    %.1f s (superstep phase)\n"+
			"cost model R2        %.3f (features: %s)\n"+
			"sample               %.1f%% vertices, %.1f%% edges (eV=%.1f, eE=%.1f)\n"+
			"sample-run cost      %.1f s",
		p.Algorithm, p.Iterations, p.SuperstepSeconds, p.Model.R2(), sel,
		100*p.SampleVertexRatio, 100*p.SampleEdgeRatio, p.Scale.EV, p.Scale.EE,
		p.SampleRunSeconds)
}
