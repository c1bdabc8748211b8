// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the simulated substrate: Figures 4-9, Tables 2-3, the
// analytical upper-bound comparison, and the ablations DESIGN.md calls
// out. Each experiment returns a structured result that renders as an
// aligned text table; cmd/genexp prints them and bench_test.go wraps them
// as benchmarks.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"predict/internal/algorithms"
	"predict/internal/bsp"
	"predict/internal/gen"
	"predict/internal/graph"
	"predict/internal/sampling"
)

// Config parameterizes an experiment run.
type Config struct {
	// Scale multiplies the stand-in dataset sizes; 1.0 is the default
	// (~100x below the paper's graphs), benchmarks use smaller scales.
	Scale float64
	// Workers is the BSP worker count (default bsp.DefaultWorkers).
	Workers int
	// Seed drives all randomness.
	Seed uint64
	// Ratios is the sampling-ratio sweep of the figures' x-axis.
	Ratios []float64
	// TrainingRatios are the sample-run ratios used to train cost models
	// (§5.2 uses 0.05, 0.1, 0.15, 0.2).
	TrainingRatios []float64
	// Progress, when non-nil, receives one line per completed step.
	Progress io.Writer
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 1.0
	}
	if c.Workers == 0 {
		c.Workers = bsp.DefaultWorkers
	}
	if c.Seed == 0 {
		c.Seed = 20130826 // VLDB 2013 started August 26
	}
	if len(c.Ratios) == 0 {
		c.Ratios = []float64{0.01, 0.05, 0.10, 0.15, 0.20, 0.25}
	}
	if len(c.TrainingRatios) == 0 {
		c.TrainingRatios = []float64{0.05, 0.10, 0.15, 0.20}
	}
	return c
}

// Lab memoizes dataset graphs and actual (full-graph) runs across
// experiments, since several figures share them.
type Lab struct {
	cfg     Config
	graphs  map[string]*graph.Graph
	actuals map[string]*algorithms.RunInfo
}

// NewLab returns a Lab for the given config.
func NewLab(cfg Config) *Lab {
	return &Lab{
		cfg:     cfg.withDefaults(),
		graphs:  map[string]*graph.Graph{},
		actuals: map[string]*algorithms.RunInfo{},
	}
}

func (l *Lab) progressf(format string, args ...any) {
	if l.cfg.Progress != nil {
		fmt.Fprintf(l.cfg.Progress, format+"\n", args...)
	}
}

// BSP returns the execution environment shared by sample and actual runs
// (the paper's assumption iii), priced by the default cost oracle.
func (l *Lab) BSP() bsp.Config {
	return bsp.Config{Workers: l.cfg.Workers, Seed: l.cfg.Seed}
}

// Graph returns the stand-in dataset for a paper prefix (LJ, Wiki, TW,
// UK), generating and caching it on first use.
func (l *Lab) Graph(prefix string) (*graph.Graph, error) {
	if g, ok := l.graphs[prefix]; ok {
		return g, nil
	}
	ds, err := gen.ByPrefix(prefix)
	if err != nil {
		return nil, err
	}
	l.progressf("generating %s at scale %.2f", ds.Name, l.cfg.Scale)
	g := ds.Generate(l.cfg.Scale, l.cfg.Seed)
	l.graphs[prefix] = g
	return g, nil
}

// Actual returns the profiled full-graph run of alg on the dataset,
// caching by algorithm name + threshold key + prefix.
func (l *Lab) Actual(alg algorithms.Algorithm, key, prefix string) (*algorithms.RunInfo, error) {
	cacheKey := alg.Name() + "/" + key + "/" + prefix
	if ri, ok := l.actuals[cacheKey]; ok {
		return ri, nil
	}
	g, err := l.Graph(prefix)
	if err != nil {
		return nil, err
	}
	l.progressf("actual run: %s on %s", alg.Name(), prefix)
	ri, err := alg.Run(g, l.BSP())
	if err != nil {
		return nil, fmt.Errorf("actual %s on %s: %w", alg.Name(), prefix, err)
	}
	l.actuals[cacheKey] = ri
	return ri, nil
}

// sampleRun draws a sample of g and executes the transformed algorithm on
// it, returning the run and the sample.
func (l *Lab) sampleRun(alg algorithms.Algorithm, g *graph.Graph, ratio float64,
	method sampling.Method, seedOffset uint64) (*algorithms.RunInfo, *sampling.Result, error) {
	s, err := sampling.Sample(g, method, sampling.Options{
		Ratio: ratio,
		Seed:  l.cfg.Seed + seedOffset,
	})
	if err != nil {
		return nil, nil, err
	}
	ri, err := alg.Transformed(s.VertexRatio).Run(s.Graph, l.BSP())
	if err != nil {
		return nil, nil, fmt.Errorf("sample run (ratio %.2f): %w", ratio, err)
	}
	return ri, s, nil
}

// ----- Result containers -------------------------------------------------

// Point is one measurement at a sampling ratio.
type Point struct {
	Ratio float64
	Value float64
}

// Series is one labeled line of a figure.
type Series struct {
	Label  string
	Points []Point
}

// FigureResult is a reproduced paper figure: one or more series over the
// sampling-ratio sweep.
type FigureResult struct {
	ID    string
	Title string
	// YLabel describes Value (e.g. "relative error, iterations").
	YLabel string
	Series []Series
	// Notes carries free-form observations (e.g. paper-reported bands).
	Notes []string
}

// TableResult is a reproduced paper table.
type TableResult struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render writes the figure as an aligned text table: one row per ratio,
// one column per series.
func (f *FigureResult) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", f.ID, f.Title)
	fmt.Fprintf(w, "y: %s\n", f.YLabel)
	header := append([]string{"ratio"}, labelsOf(f.Series)...)
	rows := [][]string{}
	for _, ratio := range ratiosOf(f.Series) {
		row := []string{fmt.Sprintf("%.2f", ratio)}
		for _, s := range f.Series {
			cell := ""
			for _, p := range s.Points {
				if p.Ratio == ratio {
					cell = fmt.Sprintf("%+.3f", p.Value)
					break
				}
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}
	renderTable(w, header, rows)
	for _, n := range f.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Render writes the table with aligned columns.
func (t *TableResult) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	renderTable(w, t.Header, t.Rows)
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func labelsOf(series []Series) []string {
	out := make([]string, len(series))
	for i, s := range series {
		out[i] = s.Label
	}
	return out
}

func ratiosOf(series []Series) []float64 {
	seen := map[float64]bool{}
	var out []float64
	for _, s := range series {
		for _, p := range s.Points {
			if !seen[p.Ratio] {
				seen[p.Ratio] = true
				out = append(out, p.Ratio)
			}
		}
	}
	sort.Float64s(out)
	return out
}

func renderTable(w io.Writer, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range rows {
		line(row)
	}
}
