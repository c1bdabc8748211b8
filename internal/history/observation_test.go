package history

import (
	"os"
	"path/filepath"
	"testing"
)

// observationsByKey collects the observed runtimes of every "observation"
// record, grouped by model key in log order.
func observationsByKey(records []Record) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range records {
		if r.Observation == nil {
			continue
		}
		out[r.Observation.ModelKey] = append(out[r.Observation.ModelKey], r.Observation.ActualSeconds)
	}
	return out
}

func TestObservationRoundTripAndGrouping(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	recs := []Record{
		NewObservation("key-a", 10.5, 8),
		modelRecord("key-a", 1),
		NewObservation("key-b", 3.25, 0),
		NewObservation("key-a", 11.5, 8),
	}
	for _, r := range recs {
		if err := AppendFileSync(path, r); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	loaded, torn, err := LoadFile(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if torn != nil {
		t.Fatalf("unexpected torn tail: %v", torn)
	}
	obs := observationsByKey(loaded)
	if got := obs["key-a"]; len(got) != 2 || got[0] != 10.5 || got[1] != 11.5 {
		t.Errorf("key-a observations %v, want [10.5 11.5] in log order", got)
	}
	if got := obs["key-b"]; len(got) != 1 || got[0] != 3.25 {
		t.Errorf("key-b observations %v, want [3.25]", got)
	}
	if loaded[0].Kind != KindObservation {
		t.Errorf("round-tripped kind %q, want %q", loaded[0].Kind, KindObservation)
	}
	if loaded[0].Observation.Workers != 8 {
		t.Errorf("round-tripped workers %d, want 8", loaded[0].Observation.Workers)
	}
}

func TestCompactRecordsCapsObservationsPerKey(t *testing.T) {
	// Twice the cap for one key, interleaved with another key's small
	// stream and a model record: compaction must keep exactly the newest
	// MaxObservationsPerKey of the big stream, in log order, and leave
	// the small stream and the model untouched.
	var records []Record
	for i := 0; i < 2*MaxObservationsPerKey; i++ {
		records = append(records, NewObservation("big", float64(i), 0))
		if i < 3 {
			records = append(records, NewObservation("small", 100+float64(i), 0))
		}
	}
	records = append(records, modelRecord("big", 1))
	compacted := CompactRecords(records)
	obs := observationsByKey(compacted)
	big := obs["big"]
	if len(big) != MaxObservationsPerKey {
		t.Fatalf("big stream kept %d observations, want %d", len(big), MaxObservationsPerKey)
	}
	for i, v := range big {
		if want := float64(MaxObservationsPerKey + i); v != want {
			t.Fatalf("big[%d] = %v, want %v (newest window in log order)", i, v, want)
		}
	}
	if got := obs["small"]; len(got) != 3 {
		t.Errorf("small stream kept %d observations, want all 3", len(got))
	}
	if live := liveSet(compacted); live["big"] == "" {
		t.Error("model record lost by observation capping")
	}
}

func TestCompactFileDropsStaleObservations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	for i := 0; i < MaxObservationsPerKey+5; i++ {
		if err := AppendFileSync(path, NewObservation("k", float64(i), 0)); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	kept, err := CompactFile(path)
	if err != nil {
		t.Fatalf("compact: %v", err)
	}
	if kept != MaxObservationsPerKey {
		t.Errorf("compacted log holds %d records, want %d", kept, MaxObservationsPerKey)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Errorf("compaction did not shrink the log (%d -> %d bytes)", before.Size(), after.Size())
	}
}
