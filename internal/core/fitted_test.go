package core

import (
	"bytes"
	"testing"

	"predict/internal/algorithms"
	"predict/internal/history"
)

// TestFitExtrapolateMatchesPredict pins the refactor invariant: Predict
// must be exactly Fit followed by Extrapolate at the sample cluster size.
func TestFitExtrapolateMatchesPredict(t *testing.T) {
	g := testGraphBA()
	pr := algorithms.NewPageRank()
	pr.Tau = algorithms.TauForTolerance(0.001, g.NumVertices())

	pred, err := New(testOptions(0.1)).Predict(pr, g)
	if err != nil {
		t.Fatal(err)
	}
	fitted, err := New(testOptions(0.1)).Fit(pr, g)
	if err != nil {
		t.Fatal(err)
	}
	split, err := fitted.Extrapolate(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if split.Iterations != pred.Iterations {
		t.Errorf("iterations: split %d, direct %d", split.Iterations, pred.Iterations)
	}
	if split.SuperstepSeconds != pred.SuperstepSeconds {
		t.Errorf("superstep seconds: split %g, direct %g",
			split.SuperstepSeconds, pred.SuperstepSeconds)
	}
	if split.PredictedRemoteMessageBytes != pred.PredictedRemoteMessageBytes {
		t.Errorf("remote bytes: split %g, direct %g",
			split.PredictedRemoteMessageBytes, pred.PredictedRemoteMessageBytes)
	}
	if split.CriticalShareFull != pred.CriticalShareFull {
		t.Errorf("critical share: split %g, direct %g",
			split.CriticalShareFull, pred.CriticalShareFull)
	}
}

// TestExtrapolateWhatIfWorkers verifies the capacity-planning axis: the
// same fitted model must predict shorter runtimes on larger what-if
// clusters (smaller critical-path shares), without refitting.
func TestExtrapolateWhatIfWorkers(t *testing.T) {
	g := testGraphBA()
	pr := algorithms.NewPageRank()
	pr.Tau = algorithms.TauForTolerance(0.001, g.NumVertices())

	fitted, err := New(testOptions(0.1)).Fit(pr, g)
	if err != nil {
		t.Fatal(err)
	}
	var prev float64
	for i, workers := range []int{2, 4, 8, 16} {
		pred, err := fitted.Extrapolate(g, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if pred.Iterations != fitted.Iterations {
			t.Errorf("workers=%d changed iterations: %d", workers, pred.Iterations)
		}
		if i > 0 && pred.SuperstepSeconds >= prev {
			t.Errorf("workers=%d: %g s not below %g s at the previous size",
				workers, pred.SuperstepSeconds, prev)
		}
		prev = pred.SuperstepSeconds
	}
}

// TestFittedRecordRoundTrip persists a Fitted through internal/history and
// verifies the rebuilt model extrapolates identically: the training matrix
// refits to the same regression.
func TestFittedRecordRoundTrip(t *testing.T) {
	g := testGraphBA()
	pr := algorithms.NewPageRank()
	pr.Tau = algorithms.TauForTolerance(0.001, g.NumVertices())

	fitted, err := New(testOptions(0.1)).Fit(pr, g)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := history.Write(&buf, fitted.Record("key-1", "BA test graph")); err != nil {
		t.Fatal(err)
	}
	records, err := history.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || records[0].Kind != "model" || records[0].Model == nil {
		t.Fatalf("round trip produced %+v", records)
	}
	rebuilt, err := FittedFromRecord(records[0])
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.Iterations != fitted.Iterations {
		t.Errorf("iterations: rebuilt %d, original %d", rebuilt.Iterations, fitted.Iterations)
	}
	if rebuilt.Model.R2() != fitted.Model.R2() {
		t.Errorf("R2: rebuilt %g, original %g", rebuilt.Model.R2(), fitted.Model.R2())
	}

	orig, err := fitted.Extrapolate(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	back, err := rebuilt.Extrapolate(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if back.SuperstepSeconds != orig.SuperstepSeconds {
		t.Errorf("superstep seconds: rebuilt %g, original %g",
			back.SuperstepSeconds, orig.SuperstepSeconds)
	}
	if back.PredictedRemoteMessageBytes != orig.PredictedRemoteMessageBytes {
		t.Errorf("remote bytes: rebuilt %g, original %g",
			back.PredictedRemoteMessageBytes, orig.PredictedRemoteMessageBytes)
	}
}

// TestFittedFromRecordRejectsPlainRuns guards the kind check.
func TestFittedFromRecordRejectsPlainRuns(t *testing.T) {
	if _, err := FittedFromRecord(history.Record{Dataset: "x"}); err == nil {
		t.Error("plain run record accepted as model record")
	}
}
