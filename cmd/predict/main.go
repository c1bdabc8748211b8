// Command predict runs the PREDIcT pipeline end to end: sample a graph,
// profile a transformed sample run, fit a cost model, predict the full
// run's iterations and runtime — and optionally verify against the actual
// run.
//
// Usage:
//
//	predict -data Wiki -alg PR -ratio 0.1 -actual
//	predict -input graph.txt -alg SC -ratio 0.15
//	predict -data TW -alg CC -method RJ -workers 16
package main

import (
	"flag"
	"fmt"
	"os"

	"predict"
	"predict/internal/algorithms"
	"predict/internal/costmodel"
	"predict/internal/features"
	"predict/internal/history"
)

func main() {
	var (
		data     = flag.String("data", "Wiki", "dataset stand-in prefix: LJ, Wiki, TW, UK (ignored with -input)")
		input    = flag.String("input", "", "edge-list file to load instead of a generated dataset")
		scale    = flag.Float64("scale", 1.0, "dataset scale factor")
		algName  = flag.String("alg", "PR", "algorithm: PR, SC, TOPK, CC, NH")
		ratio    = flag.Float64("ratio", 0.10, "sampling ratio")
		method   = flag.String("method", "BRJ", "sampling method: BRJ, RJ, MHRW, UNI")
		eps      = flag.Float64("eps", 0.001, "PageRank tolerance level (tau = eps/N)")
		workers  = flag.Int("workers", 0, "BSP workers (0 = default 8)")
		seed     = flag.Uint64("seed", 1, "random seed")
		actual   = flag.Bool("actual", false, "also execute the actual run and report errors")
		histFile = flag.String("history", "", "JSON-lines history file: prior runs train the cost model (§3.4)")
		saveHist = flag.Bool("save-history", false, "with -actual and -history: archive the actual run for future predictions")
	)
	flag.Parse()

	g, err := loadGraph(*input, *data, *scale, *seed)
	if err != nil {
		fail(err)
	}
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())

	alg, err := configureAlgorithm(*algName, *eps, g.NumVertices())
	if err != nil {
		fail(err)
	}

	// Prior runs of the same algorithm, if archived, join the training set.
	var trainHistory []costmodel.TrainingRun
	if *histFile != "" {
		if records, torn, err := history.LoadFile(*histFile); err == nil {
			runs, skipped, err := history.TrainingRunsFor(records, alg.Name())
			if err != nil {
				fail(err)
			}
			trainHistory = runs
			fmt.Printf("history: %d matching run(s) loaded (%d other-algorithm records skipped)\n",
				len(runs), skipped)
			if torn != nil {
				fmt.Printf("history: recovered %s (likely an interrupted append; complete records kept)\n", torn)
			}
		} else if !os.IsNotExist(err) {
			fail(err)
		}
	}

	cfg := predict.DefaultCluster()
	cfg.Workers = *workers
	cfg.Seed = *seed
	p := predict.NewPredictor(predict.Options{
		Method:         predict.SamplingMethod(*method),
		Sampling:       predict.SamplingOptions{Ratio: *ratio, Seed: *seed},
		BSP:            cfg,
		TrainingRatios: []float64{0.05, 0.10, 0.15, 0.20},
		History:        trainHistory,
	})
	pred, err := p.Predict(alg, g)
	if err != nil {
		fail(err)
	}
	fmt.Println("\n--- prediction ---")
	fmt.Println(predict.FormatPrediction(pred))

	if !*actual {
		return
	}
	ri, err := alg.Run(g, cfg)
	if err != nil {
		fail(fmt.Errorf("actual run: %w", err))
	}
	ev := predict.Evaluate(pred, ri)
	fmt.Println("\n--- actual run ---")
	fmt.Printf("iterations        %d (error %+.1f%%)\n", ev.ActualIterations, 100*ev.IterationsError)
	fmt.Printf("superstep runtime %.1f s (error %+.1f%%)\n", ev.ActualSeconds, 100*ev.RuntimeError)
	fmt.Printf("remote msg bytes  %.3g (error %+.1f%%)\n", ev.ActualRemoteBytes, 100*ev.RemoteBytesError)

	if *saveHist && *histFile != "" {
		rec := history.FromRun(ri, fmt.Sprintf("%s scale=%g", *data, *scale), "actual",
			features.ModeCriticalShare)
		if err := history.AppendFileSync(*histFile, rec); err != nil {
			fail(err)
		}
		fmt.Printf("\narchived actual run to %s\n", *histFile)
	}
}

func loadGraph(input, data string, scale float64, seed uint64) (*predict.Graph, error) {
	if input == "" {
		for _, ds := range predict.Datasets() {
			if ds.Prefix == data {
				return ds.Generate(scale, seed), nil
			}
		}
		return nil, fmt.Errorf("unknown dataset %q (want LJ, Wiki, TW or UK)", data)
	}
	f, err := os.Open(input)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return predict.ReadGraph(f)
}

func configureAlgorithm(name string, eps float64, n int) (predict.Algorithm, error) {
	alg, err := predict.AlgorithmByName(name)
	if err != nil {
		return nil, err
	}
	// PageRank-based algorithms need tau = eps/N.
	switch a := alg.(type) {
	case algorithms.PageRank:
		a.Tau = predict.PageRankTau(eps, n)
		return a, nil
	case algorithms.TopKRanking:
		a.PageRank.Tau = predict.PageRankTau(eps, n)
		return a, nil
	}
	return alg, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "predict:", err)
	os.Exit(1)
}
