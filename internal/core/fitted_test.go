package core

import (
	"bytes"
	"reflect"
	"testing"

	"predict/internal/algorithms"
	"predict/internal/graph"
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

// TestFittedIsItsRecord pins that a fitted model is exactly what its
// history record holds: for each paper algorithm, the Fitted rebuilt from
// its record, written and read back, deep-equals the one Fit returned —
// the refitted Model included — once the fit's own sample counters are
// set aside. A field a record does not carry fails it.
func TestFittedIsItsRecord(t *testing.T) {
	g := familyGraph()
	p := New(familyOptions(3))
	for _, alg := range familyAlgorithms(g.NumVertices()) {
		fitted, err := p.Fit(alg, g)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		var buf bytes.Buffer
		if err := history.Write(&buf, fitted.Record("key", "key")); err != nil {
			t.Fatal(err)
		}
		records, err := history.Read(&buf)
		if err != nil || len(records) != 1 {
			t.Fatalf("%s: read back %d records, err %v", alg.Name(), len(records), err)
		}
		rebuilt, err := FittedFromRecord(records[0])
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		want := *fitted
		want.SamplesDrawn, want.SamplesReused = 0, 0
		got, exp := reflect.ValueOf(*rebuilt), reflect.ValueOf(want)
		for i := range got.NumField() {
			if !reflect.DeepEqual(got.Field(i).Interface(), exp.Field(i).Interface()) {
				t.Errorf("%s: Fitted.%s differs after a round trip through its record", alg.Name(), got.Type().Field(i).Name)
			}
		}
	}
}

// TestModelTypesReachNoGraph holds the model cache's side of DESIGN.md
// §10: no value a Fitted or a Prediction holds can reference a graph, so
// a cached model pins no sample and no dataset.
func TestModelTypesReachNoGraph(t *testing.T) {
	graphType := reflect.TypeFor[graph.Graph]()
	seen := map[reflect.Type]bool{}
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		if ty == graphType {
			t.Errorf("%s reaches a graph.Graph", path)
		}
		if seen[ty] {
			return
		}
		seen[ty] = true
		switch ty.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Chan:
			walk(path, ty.Elem())
		case reflect.Map:
			walk(path, ty.Key())
			walk(path, ty.Elem())
		case reflect.Struct:
			for i := range ty.NumField() {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		case reflect.Interface, reflect.Func:
			t.Errorf("%s is of kind %s, which may hold anything", path, ty.Kind())
		}
	}
	walk("Fitted", reflect.TypeFor[Fitted]())
	walk("Prediction", reflect.TypeFor[Prediction]())
}

// TestFittedFromRecordRefusesRecordWithoutTrainingRows pins that a model
// is refitted from its training matrix and nothing else: a record without
// one is unreadable, not a model of its sample run alone.
func TestFittedFromRecordRefusesRecordWithoutTrainingRows(t *testing.T) {
	fitted, err := fitS5W1("PR", familyGraph())
	if err != nil {
		t.Fatal(err)
	}
	rec := fitted.Record("key", "key")
	rec.Model.TrainingRows = nil
	if _, err := FittedFromRecord(rec); err == nil {
		t.Error("a model record without training rows was accepted")
	}
}

// TestFittedFromRecordRejectsPlainRuns guards the kind check.
func TestFittedFromRecordRejectsPlainRuns(t *testing.T) {
	if _, err := FittedFromRecord(history.Record{Dataset: "x"}); err == nil {
		t.Error("plain run record accepted as model record")
	}
}
