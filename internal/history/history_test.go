package history

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"predict/internal/algorithms"
	"predict/internal/bsp"
	"predict/internal/cluster"
	"predict/internal/costmodel"
	"predict/internal/features"
	"predict/internal/gen"
)

func profiledRun(t *testing.T) *algorithms.RunInfo {
	t.Helper()
	g := gen.BarabasiAlbert(500, 4, 0.4, 1)
	o := cluster.DefaultOracle()
	o.NoiseStdDev = 0
	o.MemoryBudgetBytes = 0
	pr := algorithms.NewPageRank()
	pr.Tau = algorithms.TauForTolerance(0.01, g.NumVertices())
	ri, err := pr.Run(g, bsp.Config{Workers: 2, Oracle: &o})
	if err != nil {
		t.Fatal(err)
	}
	return ri
}

func TestRoundTrip(t *testing.T) {
	ri := profiledRun(t)
	rec := FromRun(ri, "BA-test", "actual", features.ModeCriticalShare)
	if rec.Algorithm != "PageRank" {
		t.Errorf("Algorithm = %q", rec.Algorithm)
	}
	if len(rec.Iterations) != ri.Iterations {
		t.Fatalf("%d rows, want %d", len(rec.Iterations), ri.Iterations)
	}

	var buf bytes.Buffer
	if err := Write(&buf, rec); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("read %d records, want 1", len(got))
	}
	tr, err := got[0].TrainingRun()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Iters) != ri.Iterations {
		t.Errorf("training rows = %d, want %d", len(tr.Iters), ri.Iterations)
	}
	// The recovered training data must train a model.
	if _, err := costmodel.Train([]costmodel.TrainingRun{tr}, costmodel.Options{}); err != nil {
		t.Errorf("Train on recovered history: %v", err)
	}
}

func TestFileAppendAndLoad(t *testing.T) {
	ri := profiledRun(t)
	path := filepath.Join(t.TempDir(), "history.jsonl")
	rec := FromRun(ri, "d1", "actual", features.ModeCriticalShare)
	if err := AppendFileSync(path, rec); err != nil {
		t.Fatal(err)
	}
	rec2 := FromRun(ri, "d2", "sample", features.ModeCriticalShare)
	if err := AppendFileSync(path, rec2); err != nil {
		t.Fatal(err)
	}
	got, torn, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if torn != nil {
		t.Fatalf("unexpected torn tail on a clean file: %v", torn)
	}
	if len(got) != 2 {
		t.Fatalf("loaded %d records, want 2", len(got))
	}
	if got[1].Dataset != "d2" || got[1].Kind != "sample" {
		t.Errorf("second record = %+v", got[1])
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, _, err := LoadFile(filepath.Join(t.TempDir(), "nope.jsonl")); !os.IsNotExist(err) {
		t.Errorf("err = %v, want not-exist", err)
	}
}

func TestSchemaValidation(t *testing.T) {
	ri := profiledRun(t)
	rec := FromRun(ri, "d", "actual", features.ModeCriticalShare)
	rec.FeatureNames[0] = "Bogus"
	if _, err := rec.TrainingRun(); err == nil || !strings.Contains(err.Error(), "Bogus") {
		t.Errorf("schema mismatch accepted: %v", err)
	}
	rec2 := FromRun(ri, "d", "actual", features.ModeCriticalShare)
	rec2.FeatureNames = rec2.FeatureNames[:3]
	if _, err := rec2.TrainingRun(); err == nil {
		t.Error("truncated schema accepted")
	}
	rec3 := FromRun(ri, "d", "actual", features.ModeCriticalShare)
	rec3.Iterations[0].Features = rec3.Iterations[0].Features[:2]
	if _, err := rec3.TrainingRun(); err == nil {
		t.Error("truncated row accepted")
	}
}

func TestTrainingRunsForFiltersAlgorithm(t *testing.T) {
	ri := profiledRun(t)
	recs := []Record{
		FromRun(ri, "d1", "actual", features.ModeCriticalShare),
		{Algorithm: "SemiClustering", Dataset: "d2"},
	}
	runs, skipped, err := TrainingRunsFor(recs, "PageRank")
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || skipped != 1 {
		t.Errorf("runs = %d, skipped = %d; want 1, 1", len(runs), skipped)
	}
}

func TestReadCorruptStream(t *testing.T) {
	if _, err := Read(strings.NewReader("{not json")); err == nil {
		t.Error("corrupt stream accepted")
	}
}
