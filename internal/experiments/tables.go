package experiments

import (
	"errors"
	"fmt"

	"predict/internal/algorithms"
	"predict/internal/bsp"
	"predict/internal/gen"
	"predict/internal/graph"
)

// Table2 reproduces the dataset-characteristics table: the paper's real
// graph sizes side by side with the measured properties of the stand-ins
// at the lab's scale.
func (l *Lab) Table2() (*Result, error) {
	t := &Result{
		ID:    "Table 2",
		Title: "Graph datasets: paper originals vs simulated stand-ins",
		Header: []string{"Name", "Prefix", "paper |V|", "paper |E|", "sim |V|", "sim |E|",
			"avg deg", "eff diam", "alpha", "WCC frac", "scale-free"},
	}
	for _, ds := range gen.StandIns() {
		g, err := l.Graph(ds.Prefix)
		if err != nil {
			return nil, err
		}
		props := graph.Measure(g, 32, 200, l.cfg.Seed)
		t.Rows = append(t.Rows, []string{
			ds.Name, ds.Prefix,
			fmt.Sprintf("%d", ds.PaperVertices),
			fmt.Sprintf("%d", ds.PaperEdges),
			fmt.Sprintf("%d", props.NumVertices),
			fmt.Sprintf("%d", props.NumEdges),
			fmt.Sprintf("%.1f", props.AvgOutDegree),
			fmt.Sprintf("%d", props.EffectiveDiameter),
			fmt.Sprintf("%.2f", props.PowerLawAlpha),
			fmt.Sprintf("%.2f", props.LargestWCC),
			fmt.Sprintf("%v", ds.ScaleFree),
		})
	}
	t.Notes = append(t.Notes,
		"stand-ins are ~100x smaller than the paper's graphs with proportional densities (DESIGN.md §1)")
	return t, nil
}

// Table3 reproduces the overhead analysis: simulated end-to-end runtime of
// sample runs (sr = 0.01, 0.1, 0.2) and actual runs (sr = 1.0) for the
// paper's algorithm/dataset pairs: PR on UK and TW; SC, TOP-K and NH on
// UK; CC on TW.
func (l *Lab) Table3() (*Result, error) {
	mkPR := func(n int) algorithms.Algorithm { return pageRank(0.001, n) }
	workload := []struct {
		label  string
		alg    func(n int) algorithms.Algorithm
		prefix string
	}{
		{"PR (UK)", mkPR, "UK"},
		{"PR (TW)", mkPR, "TW"},
		{"SC (UK)", func(int) algorithms.Algorithm { return algorithms.NewSemiClustering() }, "UK"},
		{"CC (TW)", func(int) algorithms.Algorithm { return algorithms.NewConnectedComponents() }, "TW"},
		{"TOP-K (UK)", func(n int) algorithms.Algorithm { return topK(n) }, "UK"},
		{"NH (UK)", func(int) algorithms.Algorithm { return algorithms.NewNeighborhoodEstimation() }, "UK"},
	}
	ratios := []float64{0.01, 0.1, 0.2, 1.0}
	t := &Result{
		ID:     "Table 3",
		Title:  "Runtime of sample runs and actual runs (simulated seconds)",
		Header: []string{"SR"},
		Rows:   make([][]string, len(ratios)),
	}
	for r, sr := range ratios {
		t.Rows[r] = []string{fmt.Sprintf("%.2f", sr)}
	}
	for c, w := range workload {
		t.Header = append(t.Header, w.label)
		g, err := l.Graph(w.prefix)
		if err != nil {
			return nil, err
		}
		alg := w.alg(g.NumVertices())
		for i, sr := range ratios[:3] {
			ri, _, err := l.sampleRun(alg, g, sr, "BRJ", uint64(c*100+i))
			if err != nil {
				return nil, fmt.Errorf("Table 3 %s sr=%.2f: %w", w.label, sr, err)
			}
			t.Rows[i] = append(t.Rows[i], fmt.Sprintf("%.0f", ri.Profile.TotalSeconds()))
		}
		actual, err := l.Actual(alg, w.prefix)
		if err != nil {
			return nil, err
		}
		t.Rows[3] = append(t.Rows[3], fmt.Sprintf("%.0f", actual.Profile.TotalSeconds()))
	}
	t.Notes = append(t.Notes,
		"paper (seconds): sr=0.01 row 57-70s, sr=0.1 row 105-230s, actual row 861-4192s",
		"sample runs are dominated by fixed setup costs; actual runs by the superstep phase")
	return t, nil
}

// UpperBounds reproduces the §5.1 comparison of the analytical PageRank
// iteration bound (Langville & Meyer) against actual iteration counts:
// the bound ignores dataset characteristics and lands ~2-3.5x high.
func (l *Lab) UpperBounds() (*Result, error) {
	t := &Result{
		ID:     "Upper bounds (§5.1)",
		Title:  "Analytical PageRank iteration bound vs actual iterations",
		Header: []string{"eps", "bound", "LJ", "Wiki", "UK", "TW"},
	}
	for _, eps := range []float64{0.01, 0.001} {
		row := []string{fmt.Sprintf("%g", eps),
			fmt.Sprintf("%d", algorithms.PageRankIterations(eps, 0.85))}
		for _, prefix := range []string{"LJ", "Wiki", "UK", "TW"} {
			g, err := l.Graph(prefix)
			if err != nil {
				return nil, err
			}
			actual, err := l.Actual(pageRank(eps, g.NumVertices()), prefix)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%d", actual.Iterations))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper: bound of 42 iterations for eps=0.001 vs fewer than 21 actual on all datasets (2x loose)")
	return t, nil
}

// MemoryLimits reproduces the §5 "Memory Limits" narrative: on the
// Twitter stand-in, semi-clustering, top-k ranking and neighborhood
// estimation exceed the simulated cluster memory budget, while PageRank
// and connected components fit.
func (l *Lab) MemoryLimits() (*Result, error) {
	g, err := l.Graph("TW")
	if err != nil {
		return nil, err
	}
	t := &Result{
		ID:     "Memory limits (§5)",
		Title:  "Algorithms on the Twitter stand-in vs the simulated memory budget",
		Header: []string{"algorithm", "outcome"},
	}
	for _, alg := range []algorithms.Algorithm{
		pageRank(0.001, g.NumVertices()),
		algorithms.NewSemiClustering(),
		algorithms.NewConnectedComponents(),
		topK(g.NumVertices()),
		algorithms.NewNeighborhoodEstimation(),
	} {
		_, err := l.Actual(alg, "TW")
		outcome := "completed"
		switch {
		case errors.Is(err, bsp.ErrOutOfMemory):
			outcome = "OUT OF MEMORY (as in the paper)"
		case err != nil:
			outcome = "error: " + err.Error()
		}
		t.Rows = append(t.Rows, []string{alg.Name(), outcome})
	}
	t.Notes = append(t.Notes,
		"paper: Giraph cannot spill messages to disk; SC, TOP-K and NH run out of memory on Twitter")
	return t, nil
}
