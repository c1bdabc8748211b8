package predict_test

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"predict"
)

func TestFacadeDatasets(t *testing.T) {
	ds := predict.Datasets()
	if len(ds) != 4 {
		t.Fatalf("Datasets() = %d entries, want 4", len(ds))
	}
	wiki := predict.Dataset("Wiki")
	g := wiki.Generate(0.02, 1)
	if g.NumVertices() == 0 || g.NumEdges() == 0 {
		t.Fatal("Wiki stand-in generated empty graph")
	}
}

func TestFacadeDatasetPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Dataset(bogus) did not panic")
		}
	}()
	predict.Dataset("bogus")
}

func TestFacadeEndToEnd(t *testing.T) {
	g := predict.Dataset("Wiki").Generate(0.05, 3)
	pr := predict.NewPageRank()
	pr.Tau = predict.PageRankTau(0.001, g.NumVertices())

	cfg := predict.DefaultCluster()
	cfg.Workers = 4
	p := predict.NewPredictor(predict.Options{
		Sampling:       predict.SamplingOptions{Ratio: 0.15, Seed: 5},
		BSP:            cfg,
		TrainingRatios: []float64{0.1, 0.2},
	})
	pred, err := p.Predict(pr, g)
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if pred.Iterations < 2 {
		t.Errorf("Iterations = %d, want >= 2", pred.Iterations)
	}
	if pred.SuperstepSeconds <= 0 {
		t.Errorf("SuperstepSeconds = %v, want > 0", pred.SuperstepSeconds)
	}

	actual, err := pr.Run(g, cfg)
	if err != nil {
		t.Fatalf("actual run: %v", err)
	}
	ev := predict.Evaluate(pred, actual)
	if ev.ActualIterations == 0 || ev.ActualSeconds == 0 {
		t.Errorf("evaluation missing actuals: %+v", ev)
	}

	report := predict.FormatPrediction(pred)
	for _, want := range []string{"PageRank", "iterations", "R2", "sample"} {
		if !strings.Contains(report, want) {
			t.Errorf("FormatPrediction missing %q:\n%s", want, report)
		}
	}
}

// TestFormatPredictionReportsSampleRatios pins the report's sample line to
// the fit's achieved ratios: a Prediction carries them, not its sample.
func TestFormatPredictionReportsSampleRatios(t *testing.T) {
	g := predict.Dataset("Wiki").Generate(0.05, 1)
	pr := predict.NewPageRank()
	pr.Tau = predict.PageRankTau(0.001, g.NumVertices())
	fitted, err := predict.NewPredictor(predict.Options{
		Sampling:       predict.SamplingOptions{Ratio: 0.15, Seed: 5},
		BSP:            predict.DefaultCluster(),
		TrainingRatios: []float64{0.1, 0.2},
	}).Fit(pr, g)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	pred, err := fitted.Extrapolate(g, 0)
	if err != nil {
		t.Fatalf("Extrapolate: %v", err)
	}
	if fitted.SampleVertexRatio <= 0 || fitted.SampleEdgeRatio <= 0 {
		t.Fatalf("fit reports sample ratios %v, %v", fitted.SampleVertexRatio, fitted.SampleEdgeRatio)
	}
	if pred.SampleVertexRatio != fitted.SampleVertexRatio || pred.SampleEdgeRatio != fitted.SampleEdgeRatio {
		t.Errorf("prediction reports sample ratios %v, %v; its fit %v, %v",
			pred.SampleVertexRatio, pred.SampleEdgeRatio, fitted.SampleVertexRatio, fitted.SampleEdgeRatio)
	}
	want := fmt.Sprintf("sample               %.1f%% vertices, %.1f%% edges",
		100*fitted.SampleVertexRatio, 100*fitted.SampleEdgeRatio)
	if report := predict.FormatPrediction(pred); !strings.Contains(report, want) {
		t.Errorf("FormatPrediction has no line %q:\n%s", want, report)
	}
}

func TestFacadeGraphRoundTrip(t *testing.T) {
	g := predict.Dataset("Wiki").Generate(0.02, 1)
	var buf bytes.Buffer
	if err := predict.WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := predict.ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Errorf("round trip gave %v, want %v", g2, g)
	}
}

// TestFacadeSnapshotAndParallelLoad: LoadGraphFile reads back both forms
// the facade writes — a binary snapshot and a text edge list, which it
// parses in parallel.
func TestFacadeSnapshotAndParallelLoad(t *testing.T) {
	g := predict.Dataset("UK").Generate(0.02, 2)
	dir := t.TempDir()
	for name, write := range map[string]func(io.Writer, *predict.Graph) error{
		"g.snap": predict.WriteGraphSnapshot,
		"g.txt":  predict.WriteGraph,
	} {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(f, g); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := predict.LoadGraphFile(path)
		if err != nil {
			t.Fatalf("LoadGraphFile(%s): %v", name, err)
		}
		if got.NumVertices() != g.NumVertices() || got.NumEdges() != g.NumEdges() {
			t.Errorf("%s round trip gave %v, want %v", name, got, g)
		}
	}
}

func TestFacadeAlgorithmByName(t *testing.T) {
	for _, name := range []string{"PR", "SC", "TOPK", "CC", "NH"} {
		if _, err := predict.AlgorithmByName(name); err != nil {
			t.Errorf("AlgorithmByName(%s): %v", name, err)
		}
	}
}

func TestFacadeBoundMatchesPaper(t *testing.T) {
	if got := predict.PageRankIterationBound(0.001, 0.85); got < 42 || got > 43 {
		t.Errorf("bound = %d, want 42-43", got)
	}
}
