package experiments

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"

	"predict/internal/algorithms"
)

// goldenRecord is the CSV record of `genexp -exp all -scale 0.05 -format
// csv` (default seed and workers). Regenerate it with
//
//	PREDICT_CAPTURE_PINS=1 go test ./internal/experiments -run TestRecordMatchesGolden
const goldenRecord = "testdata/record_scale005.csv"

// tinyLab returns a Lab small and fast enough for unit tests.
func tinyLab() *Lab {
	return NewLab(Config{Scale: 0.04, Workers: 4, Seed: 7})
}

var (
	recordOnce sync.Once
	recordText string
	recordErr  error
)

// record returns the CSV record of every experiment at scale 0.05, run
// once per test binary and shared by the golden and the shape tests.
func record(t *testing.T) string {
	t.Helper()
	recordOnce.Do(func() {
		var buf bytes.Buffer
		recordErr = NewLab(Config{Scale: 0.05}).Write(&buf, "all", true)
		recordText = buf.String()
	})
	if recordErr != nil {
		t.Fatalf("record: %v", recordErr)
	}
	return recordText
}

// block is one result of a CSV record: its "ID — Title" line, its header
// and data rows, and its notes.
type block struct {
	title string
	rows  [][]string
	notes []string
}

// parseRecord splits a CSV record into its opening line and its blocks.
func parseRecord(rec string) (string, []block, error) {
	lines := strings.Split(strings.TrimSuffix(rec, "\n"), "\n")
	var blocks []block
	for _, line := range lines[1:] {
		switch {
		case strings.HasPrefix(line, "# note: ") && len(blocks) > 0:
			b := &blocks[len(blocks)-1]
			b.notes = append(b.notes, strings.TrimPrefix(line, "# note: "))
		case strings.HasPrefix(line, "# "):
			blocks = append(blocks, block{title: strings.TrimPrefix(line, "# ")})
		case len(blocks) > 0:
			row, err := csv.NewReader(strings.NewReader(line)).Read()
			if err != nil {
				return "", nil, fmt.Errorf("%q: %w", line, err)
			}
			b := &blocks[len(blocks)-1]
			b.rows = append(b.rows, row)
		default:
			return "", nil, fmt.Errorf("row %q before any block", line)
		}
	}
	return lines[0], blocks, nil
}

// diffRecord compares two CSV records cell by cell and names each
// difference by block, row and column.
func diffRecord(got, want string) []string {
	gotHead, gotBlocks, err := parseRecord(got)
	if err != nil {
		return []string{"got: " + err.Error()}
	}
	wantHead, wantBlocks, err := parseRecord(want)
	if err != nil {
		return []string{"want: " + err.Error()}
	}
	var diffs []string
	if gotHead != wantHead {
		diffs = append(diffs, fmt.Sprintf("opening line: got %q, want %q", gotHead, wantHead))
	}
	if len(gotBlocks) != len(wantBlocks) {
		diffs = append(diffs, fmt.Sprintf("got %d blocks, want %d", len(gotBlocks), len(wantBlocks)))
	}
	for i := range min(len(gotBlocks), len(wantBlocks)) {
		g, w := gotBlocks[i], wantBlocks[i]
		if g.title != w.title {
			diffs = append(diffs, fmt.Sprintf("block %d: got %q, want %q", i+1, g.title, w.title))
			continue
		}
		if len(g.rows) != len(w.rows) || len(g.notes) != len(w.notes) {
			diffs = append(diffs, fmt.Sprintf("%s: got %d rows and %d notes, want %d and %d",
				w.title, len(g.rows), len(g.notes), len(w.rows), len(w.notes)))
			continue
		}
		for r := range w.rows {
			if len(g.rows[r]) != len(w.rows[r]) {
				diffs = append(diffs, fmt.Sprintf("%s: row %d: got %d columns, want %d",
					w.title, r, len(g.rows[r]), len(w.rows[r])))
				continue
			}
			for c := range w.rows[r] {
				if g.rows[r][c] != w.rows[r][c] {
					diffs = append(diffs, fmt.Sprintf("%s: row %d (%s), column %d (%s): got %q, want %q",
						w.title, r, w.rows[r][0], c, w.rows[0][c], g.rows[r][c], w.rows[r][c]))
				}
			}
		}
		for n := range w.notes {
			if g.notes[n] != w.notes[n] {
				diffs = append(diffs, fmt.Sprintf("%s: note %d: got %q, want %q", w.title, n+1, g.notes[n], w.notes[n]))
			}
		}
	}
	return diffs
}

var nonFinite = regexp.MustCompile(`(?i)\b(nan|[+-]?inf(inity)?)\b`)

// TestRecordMatchesGolden holds every cell of every figure and table, and
// every note, to the committed record at scale 0.05.
func TestRecordMatchesGolden(t *testing.T) {
	got := record(t)
	if os.Getenv("PREDICT_CAPTURE_PINS") != "" {
		if err := os.WriteFile(goldenRecord, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("captured %s (%d bytes)", goldenRecord, len(got))
		return
	}
	want, err := os.ReadFile(goldenRecord)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diffRecord(got, string(want)) {
		t.Error(d)
	}
	_, blocks, err := parseRecord(got)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		for r, row := range b.rows[1:] {
			for c, cell := range row {
				if nonFinite.MatchString(cell) {
					t.Errorf("%s: row %d (%s), column %d (%s): non-finite cell %q",
						b.title, r+1, row[0], c, b.rows[0][c], cell)
				}
			}
		}
	}
}

func TestRecordDiffNamesTheCell(t *testing.T) {
	want, err := os.ReadFile(goldenRecord)
	if err != nil {
		t.Fatal(err)
	}
	const wantLine = "0.1,0.3333333333333333,0.2857142857142857,0.2857142857142857,0.3333333333333333"
	if !strings.Contains(string(want), "\n"+wantLine+"\n") {
		t.Fatalf("golden has no line %q to edit", wantLine)
	}
	got := strings.Replace(string(want), "\n"+wantLine+"\n",
		"\n0.1,0.3333333333333333,0.3,0.2857142857142857,0.3333333333333333\n", 1)
	diffs := diffRecord(got, string(want))
	wantDiff := `Figure 4 — Predicting iterations for PageRank, eps=0.01: row 3 (0.1), column 2 (Wiki): got "0.3", want "0.2857142857142857"`
	if len(diffs) != 1 || diffs[0] != wantDiff {
		t.Errorf("diffs = %q\nwant [%q]", diffs, wantDiff)
	}
}

// checkShape asserts the shared record holds n blocks of experiment id,
// each with rows data rows and, when given, the header.
func checkShape(t *testing.T, id string, n, rows int, header ...string) []block {
	t.Helper()
	_, blocks, err := parseRecord(record(t))
	if err != nil {
		t.Fatal(err)
	}
	var out []block
	for _, b := range blocks {
		if !strings.HasPrefix(b.title, id+" — ") {
			continue
		}
		out = append(out, b)
		if len(b.rows)-1 != rows {
			t.Errorf("%s: %d rows, want %d", b.title, len(b.rows)-1, rows)
		}
		if header != nil && strings.Join(b.rows[0], ",") != strings.Join(header, ",") {
			t.Errorf("%s: header %q, want %q", b.title, b.rows[0], header)
		}
	}
	if len(out) != n {
		t.Fatalf("%s: %d blocks, want %d", id, len(out), n)
	}
	return out
}

func TestFigure4Tiny(t *testing.T) {
	checkShape(t, "Figure 4", 2, len(sweepRatios), "ratio", "LJ", "Wiki", "UK", "TW")
}

func TestFigure5Tiny(t *testing.T) {
	checkShape(t, "Figure 5", 2, len(sweepRatios), "ratio", "LJ", "Wiki", "UK")
}

func TestFigure6Tiny(t *testing.T) {
	checkShape(t, "Figure 6 (top)", 1, len(sweepRatios), "ratio", "LJ", "Wiki", "UK")
	checkShape(t, "Figure 6 (bottom)", 1, len(sweepRatios), "ratio", "LJ", "Wiki", "UK")
}

func TestFigure9Tiny(t *testing.T) {
	for _, id := range []string{"Figure 9 (top)", "Figure 9 (bottom)"} {
		checkShape(t, id, 1, len(sweepRatios), "ratio", "BRJ", "RJ", "MHRW")
	}
}

func TestFigure7And8Tiny(t *testing.T) {
	for _, id := range []string{"Figure 7a", "Figure 7b", "Figure 8a", "Figure 8b"} {
		b := checkShape(t, id, 1, len(sweepRatios), "ratio", "LJ", "Wiki", "UK")
		// One R² per dataset, then the paper's band.
		if len(b[0].notes) != 4 || !strings.HasPrefix(b[0].notes[0], "R2(LJ) = ") {
			t.Errorf("%s: notes %q, want R2 per dataset and the paper's band", id, b[0].notes)
		}
	}
}

func TestExtendedFiguresTiny(t *testing.T) {
	checkShape(t, "Extended: CC", 1, len(sweepRatios), "ratio", "LJ", "Wiki", "UK", "TW")
	checkShape(t, "Extended: NH", 1, len(sweepRatios), "ratio", "LJ", "Wiki", "UK")
}

func TestTable2Tiny(t *testing.T) {
	b := checkShape(t, "Table 2", 1, 4)
	for i, prefix := range []string{"LJ", "Wiki", "TW", "UK"} {
		if got := b[0].rows[i+1][1]; got != prefix {
			t.Errorf("Table 2 row %d: prefix %q, want %q", i+1, got, prefix)
		}
	}
}

func TestTable3Tiny(t *testing.T) {
	b := checkShape(t, "Table 3", 1, 4,
		"SR", "PR (UK)", "PR (TW)", "SC (UK)", "CC (TW)", "TOP-K (UK)", "NH (UK)")
	if got := b[0].rows[4][0]; got != "1.00" {
		t.Errorf("last row should be the actual run, got %q", got)
	}
}

func TestUpperBoundsTiny(t *testing.T) {
	checkShape(t, "Upper bounds (§5.1)", 1, 2, "eps", "bound", "LJ", "Wiki", "UK", "TW")
}

func TestAblationsTiny(t *testing.T) {
	for id, rows := range map[string]int{
		"Ablation: transform function":    4,
		"Ablation: sampling structure":    3,
		"Ablation: extrapolation factors": 2,
		"Ablation: critical path":         2,
		"Ablation: feature selection":     2,
	} {
		checkShape(t, id, 1, rows)
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
	// Runs are keyed by the algorithm's parameter values, not by who asks.
	first, err := lab.Actual(pageRank(0.001, g.NumVertices()), "Wiki")
	if err != nil {
		t.Fatal(err)
	}
	pr := algorithms.NewPageRank()
	pr.Tau = 0.001 / float64(g.NumVertices())
	if again, err := lab.Actual(pr, "Wiki"); err != nil || again != first {
		t.Errorf("equal parameters: got run %p (err %v), want the cached %p", again, err, first)
	}
	pr.Tau *= 10
	if other, err := lab.Actual(pr, "Wiki"); err != nil || other == first {
		t.Errorf("a different Tau returned the cached run (err %v)", err)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := NewLab(Config{}).cfg
	if cfg.Scale != 1.0 || cfg.Workers == 0 || cfg.Seed == 0 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

func TestRenderTableAlignment(t *testing.T) {
	tab := &Result{
		ID:     "T",
		Title:  "test",
		Header: []string{"a", "bbbb"},
		Rows:   [][]string{{"xxxxx", "y"}},
		Notes:  []string{"a note"},
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	want := "T — test\n" +
		"  a      bbbb\n" +
		"  -----  ----\n" +
		"  xxxxx  y   \n" +
		"note: a note\n\n"
	if buf.String() != want {
		t.Errorf("Render =\n%q\nwant\n%q", buf.String(), want)
	}
}

// testFigure has two series over two ratios.
var testFigure = &Result{
	ID:     "F",
	Title:  "fig",
	YLabel: "err",
	Ratios: []float64{0.1, 0.2},
	Series: []Series{{Label: "A", Values: []float64{0.5, -0.25}}, {Label: "B", Values: []float64{1, 1.0 / 3}}},
	Notes:  []string{"R2 = 0.9"},
}

func TestFigureWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := testFigure.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	// Full precision in the record; three places in the text table.
	want := "# F — fig\nratio,A,B\n0.1,0.5,1\n0.2,-0.25,0.3333333333333333\n# note: R2 = 0.9\n"
	if buf.String() != want {
		t.Errorf("csv = %q, want %q", buf.String(), want)
	}
	buf.Reset()
	testFigure.Render(&buf)
	want = "F — fig\ny: err\n  ratio  A       B     \n  -----  ------  ------\n" +
		"  0.10   +0.500  +1.000\n  0.20   -0.250  +0.333\nnote: R2 = 0.9\n\n"
	if buf.String() != want {
		t.Errorf("text = %q, want %q", buf.String(), want)
	}
}

func TestTableWriteCSV(t *testing.T) {
	tab := &Result{
		ID:     "T",
		Title:  "tab",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "x,y"}},
		Notes:  []string{"n"},
	}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "# T — tab\na,b\n1,\"x,y\"\n# note: n\n"
	if buf.String() != want {
		t.Errorf("csv = %q, want %q", buf.String(), want)
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
	// The interpolation-regime interval must cover the actual runtime:
	// the stream is ±2% noise around the truth, and the refit tracks it.
	for _, row := range tab.Rows[3:] {
		if row[1] != "interpolation" || row[6] != "yes" {
			t.Errorf("%s observations: regime %q, covers actual %q; want interpolation and yes", row[0], row[1], row[6])
		}
	}
	if len(tab.Notes) == 0 {
		t.Error("ClosedLoop: no notes (seed and threshold provenance missing)")
	}
}
