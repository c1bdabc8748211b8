package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// tinyLab returns a Lab small and fast enough for unit tests: tiny
// datasets, two sampling ratios, two training ratios.
func tinyLab() *Lab {
	return NewLab(Config{
		Scale:          0.04,
		Workers:        4,
		Seed:           7,
		Ratios:         []float64{0.1, 0.2},
		TrainingRatios: []float64{0.1, 0.2},
	})
}

func checkFigure(t *testing.T, f *FigureResult, wantSeries int) {
	t.Helper()
	if len(f.Series) != wantSeries {
		t.Fatalf("%s: %d series, want %d", f.ID, len(f.Series), wantSeries)
	}
	for _, s := range f.Series {
		if len(s.Points) == 0 {
			t.Fatalf("%s series %s: no points", f.ID, s.Label)
		}
		for _, p := range s.Points {
			if math.IsNaN(p.Value) || math.IsInf(p.Value, 0) {
				t.Errorf("%s series %s ratio %v: non-finite value", f.ID, s.Label, p.Ratio)
			}
		}
	}
	var buf bytes.Buffer
	f.Render(&buf)
	if !strings.Contains(buf.String(), f.ID) {
		t.Errorf("%s: Render missing figure ID", f.ID)
	}
}

func TestFigure4Tiny(t *testing.T) {
	figs, err := tinyLab().Figure4()
	if err != nil {
		t.Fatalf("Figure4: %v", err)
	}
	if len(figs) != 2 {
		t.Fatalf("got %d figures, want 2 (two tolerance levels)", len(figs))
	}
	for _, f := range figs {
		checkFigure(t, f, 4)
	}
}

func TestFigure5Tiny(t *testing.T) {
	figs, err := tinyLab().Figure5()
	if err != nil {
		t.Fatalf("Figure5: %v", err)
	}
	for _, f := range figs {
		checkFigure(t, f, 3)
	}
}

func TestFigure6Tiny(t *testing.T) {
	figs, err := tinyLab().Figure6()
	if err != nil {
		t.Fatalf("Figure6: %v", err)
	}
	if len(figs) != 2 {
		t.Fatalf("got %d panels, want 2", len(figs))
	}
	for _, f := range figs {
		checkFigure(t, f, 3)
	}
}

func TestFigure9Tiny(t *testing.T) {
	figs, err := tinyLab().Figure9()
	if err != nil {
		t.Fatalf("Figure9: %v", err)
	}
	for _, f := range figs {
		checkFigure(t, f, 3) // BRJ, RJ, MHRW
	}
}

func TestFigure7And8Tiny(t *testing.T) {
	// The runtime figures are the most expensive; share one tiny lab and
	// check only panel (a) series shape.
	lab := tinyLab()
	figs7, err := lab.Figure7()
	if err != nil {
		t.Fatalf("Figure7: %v", err)
	}
	for _, f := range figs7 {
		checkFigure(t, f, 3)
	}
	figs8, err := lab.Figure8()
	if err != nil {
		t.Fatalf("Figure8: %v", err)
	}
	for _, f := range figs8 {
		checkFigure(t, f, 3)
	}
}

func TestExtendedFiguresTiny(t *testing.T) {
	lab := tinyLab()
	cc, err := lab.FigureConnectedComponents()
	if err != nil {
		t.Fatalf("FigureConnectedComponents: %v", err)
	}
	checkFigure(t, cc[0], 4)
	nh, err := lab.FigureNeighborhoodEstimation()
	if err != nil {
		t.Fatalf("FigureNeighborhoodEstimation: %v", err)
	}
	checkFigure(t, nh[0], 3)
}

func TestTable2Tiny(t *testing.T) {
	tab, err := tinyLab().Table2()
	if err != nil {
		t.Fatalf("Table2: %v", err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows, want 4 datasets", len(tab.Rows))
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	for _, prefix := range []string{"LJ", "Wiki", "TW", "UK"} {
		if !strings.Contains(buf.String(), prefix) {
			t.Errorf("Table 2 render missing %s", prefix)
		}
	}
}

func TestTable3Tiny(t *testing.T) {
	tab, err := tinyLab().Table3()
	if err != nil {
		t.Fatalf("Table3: %v", err)
	}
	// Rows: sr = 0.01, 0.1, 0.2, 1.0.
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows, want 4", len(tab.Rows))
	}
	if tab.Rows[3][0] != "1.00" {
		t.Errorf("last row should be the actual run, got %v", tab.Rows[3])
	}
}

func TestUpperBoundsTiny(t *testing.T) {
	tab, err := tinyLab().UpperBounds()
	if err != nil {
		t.Fatalf("UpperBounds: %v", err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("%d rows, want 2 tolerance levels", len(tab.Rows))
	}
}

func TestAblationsTiny(t *testing.T) {
	lab := tinyLab()
	for _, fn := range []struct {
		name string
		f    func() (*TableResult, error)
	}{
		{"NoTransform", lab.AblationNoTransform},
		{"UniformSampling", lab.AblationUniformSampling},
		{"VertexOnlyExtrapolation", lab.AblationVertexOnlyExtrapolation},
		{"NoCriticalPath", lab.AblationNoCriticalPath},
		{"NoFeatureSelection", lab.AblationNoFeatureSelection},
	} {
		tab, err := fn.f()
		if err != nil {
			t.Fatalf("Ablation %s: %v", fn.name, err)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("Ablation %s: no rows", fn.name)
		}
	}
}

func TestLabCachesActualRuns(t *testing.T) {
	lab := tinyLab()
	g, err := lab.Graph("Wiki")
	if err != nil {
		t.Fatal(err)
	}
	if g2, _ := lab.Graph("Wiki"); g2 != g {
		t.Error("Graph not cached")
	}
}

func TestConfigDefaults(t *testing.T) {
	lab := NewLab(Config{})
	cfg := lab.cfg
	if cfg.Scale != 1.0 || cfg.Workers == 0 || len(cfg.Ratios) == 0 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

func TestRenderTableAlignment(t *testing.T) {
	tab := &TableResult{
		ID:     "T",
		Title:  "test",
		Header: []string{"a", "bbbb"},
		Rows:   [][]string{{"xxxxx", "y"}},
		Notes:  []string{"a note"},
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "a note") {
		t.Error("notes not rendered")
	}
	if !strings.Contains(out, "xxxxx") {
		t.Error("row not rendered")
	}
}

func TestClosedLoopTiny(t *testing.T) {
	tab, err := tinyLab().ClosedLoop()
	if err != nil {
		t.Fatalf("ClosedLoop: %v", err)
	}
	// Rows: observation prefixes 0, 1, 3, 5, 8, 16, 32, 64.
	if len(tab.Rows) != 8 {
		t.Fatalf("%d rows, want 8 observation prefixes", len(tab.Rows))
	}
	// Below the threshold the sample fit answers untouched: identical
	// regime, identical prediction. At and past it the refit answers.
	for _, row := range tab.Rows[:3] {
		if row[1] != "extrapolation" {
			t.Errorf("%s observations: regime %q, want extrapolation", row[0], row[1])
		}
		if row[2] != tab.Rows[0][2] {
			t.Errorf("%s observations: prediction %s moved without enough feedback (want %s)",
				row[0], row[2], tab.Rows[0][2])
		}
	}
	for _, row := range tab.Rows[3:] {
		if row[1] != "interpolation" {
			t.Errorf("%s observations: regime %q, want interpolation", row[0], row[1])
		}
	}
	// The interpolation-regime interval must cover the actual runtime:
	// the stream is ±2% noise around the truth, and the refit tracks it.
	if got := tab.Rows[len(tab.Rows)-1][6]; got != "yes" {
		t.Errorf("64 observations: interval does not cover the actual runtime")
	}
	if len(tab.Notes) == 0 {
		t.Error("ClosedLoop: no notes (seed and threshold provenance missing)")
	}
}
