package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"predict/internal/algorithms"
	"predict/internal/bsp"
	"predict/internal/cluster"
	"predict/internal/gen"
	"predict/internal/graph"
)

// corpusGraphSeed pins the generator seed of the four stand-ins. The
// corpus plays the part of the paper's fixed datasets: -seed varies the
// traffic, not the graphs. A per-seed corpus moves abs_rel_err_median by
// about a third of its median from seed to seed (measured at scale 0.5),
// which no regression bound could hold; see README.md.
const corpusGraphSeed = 1

// snapshotDatasets are the registry names of the four snapshot datasets,
// with the generator prefix each is built from; textDataset is the TW
// graph again, served from a plain-text edge list.
var snapshotDatasets = []struct{ name, prefix string }{
	{"wiki", "Wiki"}, {"lj", "LJ"}, {"uk", "UK"}, {"tw", "TW"},
}

const textDataset = "tw_text"

// warmAlgorithms are fitted in prepare for every snapshot dataset (the 12
// warm keys); coldAlgorithms is one cold_fit round on one dataset.
var (
	warmAlgorithms = []string{"PR", "CC", "NH"}
	coldAlgorithms = []string{"PR", "CC", "NH", "TOPK", "SC"}
)

// corpus is the generated registry plus the graphs it was written from.
type corpus struct {
	dir    string
	graphs map[string]*graph.Graph // by registry name, snapshot datasets only
}

// allDatasets lists every registry name, the order setup preloads them in.
func allDatasets() []string {
	names := make([]string, 0, len(snapshotDatasets)+1)
	for _, d := range snapshotDatasets {
		names = append(names, d.name)
	}
	return append(names, textDataset)
}

// writeCorpus generates the stand-ins at scale and writes the registry
// into dir: <name>.snap for each, and tw_text.txt.
func writeCorpus(dir string, scale float64) (*corpus, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &corpus{dir: dir, graphs: make(map[string]*graph.Graph)}
	for _, d := range snapshotDatasets {
		ds, err := gen.ByPrefix(d.prefix)
		if err != nil {
			return nil, err
		}
		g := ds.Generate(scale, corpusGraphSeed)
		if err := graph.WriteSnapshotFile(filepath.Join(dir, d.name+".snap"), g); err != nil {
			return nil, fmt.Errorf("writing %s snapshot: %w", d.name, err)
		}
		c.graphs[d.name] = g
	}
	if err := writeEdgeListFile(filepath.Join(dir, textDataset+".txt"), c.graphs["tw"]); err != nil {
		return nil, fmt.Errorf("writing %s: %w", textDataset, err)
	}
	// predictd's model keys embed each file's mtime and size. Pinning the
	// mtime makes the keys, and with them predictions_sha256, a function
	// of the inputs alone.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, ent := range entries {
		if err := os.Chtimes(filepath.Join(dir, ent.Name()), registryTime, registryTime); err != nil {
			return nil, err
		}
	}
	return c, nil
}

var registryTime = time.Unix(1_000_000_000, 0)

func writeEdgeListFile(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := graph.WriteEdgeList(w, g); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// serviceCluster is the cluster configuration predictd runs sample fits
// under with default flags (8 workers, seed 0, the default oracle), so
// actual runs are priced in the environment predictions assume.
func serviceCluster() bsp.Config {
	oracle := cluster.DefaultOracle()
	return bsp.Config{Workers: bsp.DefaultWorkers, Oracle: &oracle}
}

// configuredAlgorithm mirrors how the service configures a named
// algorithm for a graph of n vertices at the default epsilon.
func configuredAlgorithm(name string, n int) (algorithms.Algorithm, error) {
	alg, err := algorithms.ByName(name)
	if err != nil {
		return nil, err
	}
	const defaultEpsilon = 0.001
	switch a := alg.(type) {
	case algorithms.PageRank:
		a.Tau = algorithms.TauForTolerance(defaultEpsilon, n)
		return a, nil
	case algorithms.TopKRanking:
		a.PageRank.Tau = algorithms.TauForTolerance(defaultEpsilon, n)
		return a, nil
	}
	return alg, nil
}

// actualSeconds runs every warm algorithm to completion on every snapshot
// dataset and returns the superstep-phase seconds by "dataset/algorithm":
// the ground truth abs_rel_err_median compares predictions with.
func (c *corpus) actualSeconds() (map[string]float64, error) {
	type job struct{ data, alg string }
	var jobs []job
	for _, d := range snapshotDatasets {
		for _, a := range warmAlgorithms {
			jobs = append(jobs, job{d.name, a})
		}
	}
	secs := make([]float64, len(jobs))
	errs := make([]error, len(jobs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			g := c.graphs[j.data]
			alg, err := configuredAlgorithm(j.alg, g.NumVertices())
			if err == nil {
				var ri *algorithms.RunInfo
				if ri, err = alg.Run(g, serviceCluster()); err == nil {
					secs[i] = ri.Profile.SuperstepPhaseSeconds()
				}
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	out := make(map[string]float64, len(jobs))
	for i, j := range jobs {
		if errs[i] != nil {
			return nil, fmt.Errorf("actual run of %s on %s: %w", j.alg, j.data, errs[i])
		}
		out[j.data+"/"+j.alg] = secs[i]
	}
	return out, nil
}
