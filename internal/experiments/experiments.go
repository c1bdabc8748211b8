// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the simulated substrate: Figures 4-9, Tables 2-3, the
// analytical upper-bound comparison, and the ablations DESIGN.md calls
// out. Each experiment returns results that render as aligned text tables
// or as the CSV record; cmd/genexp prints them and bench_test.go wraps
// them as benchmarks.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
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
	// Progress, when non-nil, receives one line per completed step.
	Progress io.Writer
}

// sweepRatios is the sampling-ratio sweep of the figures' x-axis.
var sweepRatios = []float64{0.01, 0.05, 0.10, 0.15, 0.20, 0.25}

// trainingRatios are the sample-run ratios used to train cost models
// (§5.2 uses 0.05, 0.1, 0.15, 0.2).
var trainingRatios = []float64{0.05, 0.10, 0.15, 0.20}

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
// caching by the algorithm's type and parameter values and the prefix:
// every algorithm is a value struct of scalars, so equal parameters mean
// the same run.
func (l *Lab) Actual(alg algorithms.Algorithm, prefix string) (*algorithms.RunInfo, error) {
	cacheKey := fmt.Sprintf("%T%+v/%s", alg, alg, prefix)
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

// remoteBytes is a run's remote message bytes over all supersteps.
func remoteBytes(ri *algorithms.RunInfo) float64 {
	var sum float64
	for i := range ri.Profile.Supersteps {
		sum += float64(ri.Profile.Supersteps[i].Total().RemoteMessageBytes)
	}
	return sum
}

// ----- Results -----------------------------------------------------------

// Series is one labeled line of a figure: one value per ratio of the
// figure's x-axis.
type Series struct {
	Label  string
	Values []float64
}

// Result is a reproduced paper figure or table. A figure has Ratios and
// Series and renders one row per ratio, one column per series; a table
// has Header and Rows.
type Result struct {
	ID    string
	Title string
	// YLabel describes a figure's values (e.g. "relative error,
	// iterations").
	YLabel string
	Ratios []float64
	Series []Series
	Header []string
	Rows   [][]string
	// Notes carries free-form observations (e.g. paper-reported bands).
	Notes []string
}

// grid returns the result's header row followed by its rows, a figure's
// ratios and values formatted with the given verbs.
func (r *Result) grid(ratioVerb, valueVerb string) [][]string {
	if r.Series == nil {
		return append([][]string{r.Header}, r.Rows...)
	}
	grid := [][]string{{"ratio"}}
	for _, s := range r.Series {
		grid[0] = append(grid[0], s.Label)
	}
	for i, ratio := range r.Ratios {
		row := []string{fmt.Sprintf(ratioVerb, ratio)}
		for _, s := range r.Series {
			row = append(row, fmt.Sprintf(valueVerb, s.Values[i]))
		}
		grid = append(grid, row)
	}
	return grid
}

// Render writes the result as an aligned text table.
func (r *Result) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", r.ID, r.Title)
	if r.YLabel != "" {
		fmt.Fprintf(w, "y: %s\n", r.YLabel)
	}
	grid := r.grid("%.2f", "%+.3f")
	widths := make([]int, len(grid[0]))
	for _, row := range grid {
		for i, cell := range row {
			widths[i] = max(widths[i], len(cell))
		}
	}
	sep := make([]string, len(widths))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	for _, row := range slices.Insert(grid, 1, sep) {
		parts := make([]string, len(row))
		for i, c := range row {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// WriteCSV writes the result as one block of the CSV record: a "# ID —
// Title" line, the header and rows (figure values at full precision), and
// one "# note: …" line per note.
func (r *Result) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s — %s\n", r.ID, r.Title); err != nil {
		return err
	}
	if err := csv.NewWriter(w).WriteAll(r.grid("%g", "%g")); err != nil {
		return err
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "# note: %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// ----- The experiment table ----------------------------------------------

// experimentList is every experiment genexp's -exp selects, in the order
// -exp all runs them.
var experimentList = []struct {
	id  string
	run func(*Lab) ([]*Result, error)
}{
	{"table2", tables((*Lab).Table2)},
	{"fig4", (*Lab).Figure4},
	{"fig5", (*Lab).Figure5},
	{"fig6", (*Lab).Figure6},
	{"fig7", (*Lab).Figure7},
	{"fig8", (*Lab).Figure8},
	{"fig9", (*Lab).Figure9},
	{"cc", (*Lab).FigureConnectedComponents},
	{"nh", (*Lab).FigureNeighborhoodEstimation},
	{"bounds", tables((*Lab).UpperBounds)},
	{"table3", tables((*Lab).Table3)},
	{"memory", tables((*Lab).MemoryLimits)},
	{"closedloop", tables((*Lab).ClosedLoop)},
	{"ablations", tables((*Lab).AblationNoTransform, (*Lab).AblationUniformSampling,
		(*Lab).AblationVertexOnlyExtrapolation, (*Lab).AblationNoCriticalPath,
		(*Lab).AblationNoFeatureSelection)},
}

// tables runs one-table experiments in turn as one experiment.
func tables(fs ...func(*Lab) (*Result, error)) func(*Lab) ([]*Result, error) {
	return func(l *Lab) ([]*Result, error) {
		out := make([]*Result, len(fs))
		for i, f := range fs {
			var err error
			if out[i], err = f(l); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
}

// Write runs the experiment id (all for every one, in order) and writes
// its results to w: as aligned text tables, or with asCSV as the CSV
// record, which opens with one "# genexp scale=… seed=… workers=…" line.
// An unknown id is an error before anything runs.
func (l *Lab) Write(w io.Writer, id string, asCSV bool) error {
	known := id == "all"
	for _, e := range experimentList {
		known = known || e.id == id
	}
	if !known {
		return fmt.Errorf("unknown experiment %q", id)
	}
	if asCSV {
		if _, err := fmt.Fprintf(w, "# genexp scale=%g seed=%d workers=%d\n", l.cfg.Scale, l.cfg.Seed, l.cfg.Workers); err != nil {
			return err
		}
	}
	for _, e := range experimentList {
		if id != "all" && id != e.id {
			continue
		}
		results, err := e.run(l)
		if err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		for _, r := range results {
			if !asCSV {
				r.Render(w)
			} else if err := r.WriteCSV(w); err != nil {
				return err
			}
		}
	}
	return nil
}
