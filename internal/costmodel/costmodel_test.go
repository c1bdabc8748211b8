package costmodel

import (
	"math"
	"testing"

	"predict/internal/features"
)

// synthRun builds a TrainingRun whose seconds follow a known linear law of
// the feature vector: secs = base + cRem*RemMsg + cBytes*RemMsgSize.
func synthRun(n int, base, cRem, cBytes float64, scale float64) TrainingRun {
	run := TrainingRun{Source: "synth"}
	for i := 1; i <= n; i++ {
		v := make(features.Vector, len(features.Pool()))
		v[0] = float64(i) * 10 * scale     // ActVert
		v[1] = 100 * scale                 // TotVert (constant)
		v[2] = float64(i) * 50 * scale     // LocMsg
		v[3] = float64(i) * 200 * scale    // RemMsg
		v[4] = float64(i) * 400 * scale    // LocMsgSize
		v[5] = float64(i*i) * 1600 * scale // RemMsgSize (nonlinear in i)
		v[6] = 8                           // AvgMsgSize
		secs := base + cRem*v[3] + cBytes*v[5]
		run.Iters = append(run.Iters, features.IterationFeatures{Vector: v, Seconds: secs})
	}
	return run
}

func TestTrainRecoversCostFactors(t *testing.T) {
	run := synthRun(12, 0.5, 2e-5, 1e-6, 1)
	m, err := Train([]TrainingRun{run}, Options{})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if m.R2() < 0.999 {
		t.Errorf("R2 = %v, want ~1 on noiseless data", m.R2())
	}
	// Prediction on an extrapolated feature vector must follow the linear
	// law — the "predict outside training boundaries" requirement. The
	// probe keeps the same inter-feature relationships as the generating
	// process (i = 100), as real extrapolated vectors do: collinear
	// features make individual coefficients non-identifiable, but the
	// fitted hyperplane is exact along the data manifold.
	const i = 100.0
	v := make(features.Vector, len(features.Pool()))
	v[0] = i * 10
	v[1] = 100
	v[2] = i * 50
	v[3] = i * 200
	v[4] = i * 400
	v[5] = i * i * 1600
	v[6] = 8
	want := 0.5 + 2e-5*v[3] + 1e-6*v[5]
	got := m.PredictIteration(v)
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("PredictIteration = %v, want ~%v", got, want)
	}
}

func TestTrainSelectsMessageFeatures(t *testing.T) {
	run := synthRun(15, 0.1, 3e-5, 2e-6, 1)
	m, err := Train([]TrainingRun{run}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sel := m.SelectedFeatures()
	if len(sel) == 0 || len(sel) > maxFeatures {
		t.Fatalf("selected %d features %v, want 1..%d", len(sel), sel, maxFeatures)
	}
	// RemMsgSize is the dominant driver and must be selected.
	found := false
	for _, f := range sel {
		if f == features.RemMsgSize {
			found = true
		}
	}
	if !found {
		t.Errorf("selected %v, want RemMsgSize included", sel)
	}
}

func TestTrainWithHistoryImprovesRange(t *testing.T) {
	// Sample-only training sees a narrow feature range; adding "history"
	// (a run at 10x scale) widens it, keeping the model linear.
	sample := synthRun(6, 0.5, 2e-5, 1e-6, 0.1)
	history := synthRun(6, 0.5, 2e-5, 1e-6, 10)
	mSample, err := Train([]TrainingRun{sample}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mBoth, err := Train([]TrainingRun{sample, history}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate both on a large-scale iteration.
	v := history.Iters[5].Vector
	want := history.Iters[5].Seconds
	errSample := math.Abs(mSample.PredictIteration(v)-want) / want
	errBoth := math.Abs(mBoth.PredictIteration(v)-want) / want
	if errBoth > errSample+1e-9 {
		t.Errorf("history-trained error %v > sample-only %v", errBoth, errSample)
	}
}

func TestTrainNoData(t *testing.T) {
	if _, err := Train(nil, Options{}); err == nil {
		t.Fatal("empty training accepted")
	}
}

func TestPredictIterationClampsNegative(t *testing.T) {
	run := synthRun(8, 0.5, 2e-5, 1e-6, 1)
	m, err := Train([]TrainingRun{run}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	v := make(features.Vector, len(features.Pool()))
	for i := range v {
		v[i] = -1e12 // absurd vector far below training range
	}
	if got := m.PredictIteration(v); got < 0 {
		t.Errorf("PredictIteration = %v, want clamped >= 0", got)
	}
}

func TestDisableSelectionUsesAllFeatures(t *testing.T) {
	run := synthRun(20, 0.5, 2e-5, 1e-6, 1)
	m, err := Train([]TrainingRun{run}, Options{DisableSelection: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.SelectedFeatures()) != len(features.Pool()) {
		t.Errorf("selected %d features, want all %d",
			len(m.SelectedFeatures()), len(features.Pool()))
	}
}

func TestCoefficientsExposeCostFactors(t *testing.T) {
	run := synthRun(12, 0.5, 2e-5, 1e-6, 1)
	m, err := Train([]TrainingRun{run}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	coefs, intercept := m.Coefficients()
	if len(coefs) == 0 {
		t.Fatal("no coefficients")
	}
	if math.IsNaN(intercept) {
		t.Error("NaN intercept")
	}
	if c, ok := coefs[features.RemMsgSize]; ok {
		if c < 0 {
			t.Errorf("RemMsgSize coefficient %v, want positive cost factor", c)
		}
	}
}
