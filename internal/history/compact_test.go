package history

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"predict/internal/faultinject"
)

// modelRecord builds a distinguishable "model" record generation: key
// identifies the model, gen the generation, so equality of live sets
// compares content, not just key presence.
func modelRecord(key string, gen int) Record {
	return Record{
		Algorithm: "PageRank",
		Dataset:   fmt.Sprintf("%s-gen%d", key, gen),
		Kind:      "model",
		Model:     &ModelMeta{Key: key, SampleVertices: gen},
	}
}

// liveSet is the warm-start oracle: what a service warming from this log
// would end up caching — the newest record per model key.
func liveSet(records []Record) map[string]string {
	out := make(map[string]string)
	for _, r := range records {
		if r.Model != nil {
			out[r.Model.Key] = r.Dataset
		}
	}
	return out
}

func loadLiveSet(t *testing.T, path string) map[string]string {
	t.Helper()
	records, _, err := LoadFile(path)
	if err != nil {
		t.Fatalf("loading %s: %v", path, err)
	}
	return liveSet(records)
}

func equalSets(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func TestCompactRecordsKeepsNewestPerKeyAndRunRecords(t *testing.T) {
	run := Record{Algorithm: "PageRank", Dataset: "plain-run", Kind: "actual"}
	records := []Record{
		modelRecord("a", 1),
		modelRecord("b", 1),
		run,
		modelRecord("a", 2),
	}
	got := CompactRecords(records)
	if len(got) != 3 {
		t.Fatalf("compacted to %d records, want 3: %+v", len(got), got)
	}
	// Order is by last occurrence: b, run, a-gen2.
	if got[0].Model.Key != "b" || got[1].Kind != "actual" || got[2].Dataset != "a-gen2" {
		t.Errorf("compacted order/content wrong: %+v", got)
	}
	if !equalSets(liveSet(records), liveSet(got)) {
		t.Errorf("compaction changed the live set: %v vs %v", liveSet(records), liveSet(got))
	}
}

// TestChaosCompactionEquivalence is the crash-consistency property test:
// a history log compacted at ANY point — after every prefix of appends,
// under a seeded schedule, with a torn tail thrown in — must warm-start
// to exactly the same model set as the log that was never compacted.
func TestChaosCompactionEquivalence(t *testing.T) {
	seed := uint64(1)
	if v := os.Getenv("PREDICT_CHAOS_SEED"); v != "" {
		parsed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatalf("PREDICT_CHAOS_SEED=%q: %v", v, err)
		}
		seed = parsed
	}
	rng := seed
	next := func(n int) int { // splitmix64-ish, deterministic per seed
		rng += 0x9e3779b97f4a7c15
		z := rng
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return int((z ^ (z >> 31)) % uint64(n))
	}

	dir := t.TempDir()
	compacted := filepath.Join(dir, "compacted.jsonl")
	reference := filepath.Join(dir, "reference.jsonl")

	keys := []string{"k0", "k1", "k2", "k3"}
	gens := make(map[string]int)
	const ops = 60
	for op := 0; op < ops; op++ {
		key := keys[next(len(keys))]
		gens[key]++
		rec := modelRecord(key, gens[key])
		if err := AppendFileSync(compacted, rec); err != nil {
			t.Fatal(err)
		}
		if err := AppendFileSync(reference, rec); err != nil {
			t.Fatal(err)
		}
		// Compact the log at seed-chosen points — roughly every third op.
		if next(3) == 0 {
			if _, err := CompactFile(compacted); err != nil {
				t.Fatalf("op %d: CompactFile: %v", op, err)
			}
		}
		if !equalSets(loadLiveSet(t, compacted), loadLiveSet(t, reference)) {
			t.Fatalf("op %d: live sets diverged:\ncompacted: %v\nreference: %v",
				op, loadLiveSet(t, compacted), loadLiveSet(t, reference))
		}
	}

	// Tear the compacted log's tail mid-append (for real, on disk), then
	// compact: the torn fragment is dropped, the live set is unchanged.
	before := loadLiveSet(t, compacted)
	restore := faultinject.Enable(faultinject.NewInjector(seed, faultinject.Rule{
		Point:        faultinject.PointHistoryAppend,
		Err:          errors.New("injected crash"),
		PartialBytes: 21,
	}))
	err := AppendFileSync(compacted, modelRecord("k0", 999))
	restore()
	if err == nil {
		t.Fatal("torn append reported success")
	}
	if _, torn, lerr := LoadFile(compacted); lerr != nil || torn == nil {
		t.Fatalf("expected a torn tail before compaction: torn=%v err=%v", torn, lerr)
	}
	kept, err := CompactFile(compacted)
	if err != nil {
		t.Fatalf("compacting a torn log: %v", err)
	}
	if kept != len(before) {
		t.Errorf("kept = %d records, want the %d live models", kept, len(before))
	}
	if _, torn, err := LoadFile(compacted); err != nil || torn != nil {
		t.Fatalf("compacted log still torn: torn=%v err=%v", torn, err)
	}
	if got := loadLiveSet(t, compacted); !equalSets(got, before) {
		t.Fatalf("torn-tail compaction changed the live set: %v vs %v", got, before)
	}
}

// TestRewritesPublishMode0644: a compaction or a whole-file replacement
// publishes the log readable by other users and operator tools, as the
// append that created it did — not with the temp file's 0600.
func TestRewritesPublishMode0644(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	if err := AppendFileSync(path, modelRecord("a", 1), modelRecord("a", 2)); err != nil {
		t.Fatal(err)
	}
	requireMode := func(after string) {
		t.Helper()
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := info.Mode().Perm(); got != 0o644 {
			t.Errorf("after %s the log has mode %v, want -rw-r--r--", after, got)
		}
	}
	if _, err := CompactFile(path); err != nil {
		t.Fatal(err)
	}
	requireMode("CompactFile")
	if err := os.Chmod(path, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := ReplaceFile(path, modelRecord("b", 1)); err != nil {
		t.Fatal(err)
	}
	requireMode("ReplaceFile")
}

// TestChaosCompactionCrashLeavesLogIntact injects a crash into the
// window between the compacted temp file becoming durable and the rename
// publishing it: the original log must survive byte-identically, and the
// next (uninjected) compaction must succeed.
func TestChaosCompactionCrashLeavesLogIntact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	for gen := 1; gen <= 3; gen++ {
		if err := AppendFileSync(path, modelRecord("a", gen), modelRecord("b", gen)); err != nil {
			t.Fatal(err)
		}
	}
	original, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	restore := faultinject.Enable(faultinject.NewInjector(1, faultinject.Rule{
		Point: faultinject.PointHistoryCompact,
		Err:   errors.New("injected crash before rename"),
	}))
	_, cerr := CompactFile(path)
	restore()
	if cerr == nil {
		t.Fatal("crashed compaction reported success")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(original) {
		t.Fatal("crashed compaction modified the log")
	}
	// No temp litter: the aborted compaction cleans up after itself.
	onlyTheLog := func(when string) {
		t.Helper()
		entries, err := os.ReadDir(filepath.Dir(path))
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != filepath.Base(path) {
			t.Fatalf("%s the log directory holds %v, want only the log", when, entries)
		}
	}
	onlyTheLog("after an aborted compaction")

	kept, err := CompactFile(path)
	if err != nil {
		t.Fatalf("compaction after the crash: %v", err)
	}
	if kept != 2 {
		t.Errorf("kept = %d, want 2 (newest generation of a and b)", kept)
	}
	onlyTheLog("after a compaction")
	want := map[string]string{"a": "a-gen3", "b": "b-gen3"}
	if got := loadLiveSet(t, path); !equalSets(got, want) {
		t.Errorf("live set after recovery = %v, want %v", got, want)
	}

	// The other rewrite, a whole-file replacement, goes the same way.
	if err := ReplaceFile(path, modelRecord("c", 1)); err != nil {
		t.Fatal(err)
	}
	onlyTheLog("after ReplaceFile")
	if got := loadLiveSet(t, path); !equalSets(got, map[string]string{"c": "c-gen1"}) {
		t.Errorf("live set after ReplaceFile = %v, want only c", got)
	}
}
