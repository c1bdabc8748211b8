package crashtest

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestCrashMidAppendWarmStartsCheckpointedPrefix is the harness's
// headline property: the process SIGKILLs itself halfway through writing
// checkpoint N (a torn prefix really lands on disk first), and the
// restarted process must warm-start with exactly checkpoints 1..N-1 — the
// torn record excluded, nothing else lost, no clean shutdown anywhere.
// The kill point is seed-chosen so different CI seeds crash different
// appends.
func TestCrashMidAppendWarmStartsCheckpointedPrefix(t *testing.T) {
	seed := ChaosSeed(t)
	killAt := 2 + int(seed%3) // die during the 2nd..4th checkpoint append
	hist := filepath.Join(t.TempDir(), "models.jsonl")

	srv := Start(t, []string{"-history", hist},
		fmt.Sprintf("PREDICT_FAULTS=point=history.append,from=%d,partial=30,kill", killAt),
		fmt.Sprintf("PREDICT_FAULTS_SEED=%d", seed))
	srv.WaitReady(15 * time.Second)
	for i := 1; i <= killAt; i++ {
		code := srv.Predict(uint64(i))
		if i < killAt && code != 200 {
			t.Fatalf("fit %d before the crash = %d, want 200\n%s", i, code, srv.Output())
		}
		if i == killAt && code == 200 {
			t.Fatalf("fit %d survived its scheduled mid-append crash\n%s", i, srv.Output())
		}
	}
	srv.ExpectKilled(15 * time.Second)

	// The oracle: the complete records the torn log holds.
	oracle := CheckpointedModels(t, hist)
	if len(oracle) != killAt-1 {
		t.Fatalf("checkpoint log holds %d complete models after crash at fit %d, want %d",
			len(oracle), killAt, killAt-1)
	}

	// Restart without faults: warm start must equal the oracle exactly,
	// recover (and count) the torn tail, and serve the survivors warm.
	srv2 := Start(t, []string{"-history", hist})
	srv2.WaitReady(15 * time.Second)
	SameKeySet(t, srv2.Models(), oracle, "warm start after mid-append crash")
	if got := StatInt(t, srv2.Stats(), "torn_records_recovered"); got != 1 {
		t.Errorf("torn_records_recovered = %d, want 1", got)
	}
	if code := srv2.Predict(1); code != 200 {
		t.Fatalf("warm predict after restart = %d", code)
	}
	if got := StatInt(t, srv2.Stats(), "fits"); got != 0 {
		t.Errorf("warm-started server ran %d fits for a checkpointed model, want 0", got)
	}
	srv2.GracefulStop(30 * time.Second)
}

// TestCrashMidCompactionKeepsOldLog kills the process in compaction's
// most dangerous window — the compacted temp file is durable but the
// rename has not published it. The old log must win: the restart sees
// every checkpointed model.
func TestCrashMidCompactionKeepsOldLog(t *testing.T) {
	seed := ChaosSeed(t)
	hist := filepath.Join(t.TempDir(), "models.jsonl")

	srv := Start(t, []string{"-history", hist},
		"PREDICT_FAULTS=point=history.compact,from=1,kill",
		fmt.Sprintf("PREDICT_FAULTS_SEED=%d", seed))
	srv.WaitReady(15 * time.Second)
	for fit := uint64(1); fit <= 3; fit++ {
		if code := srv.Predict(fit); code != 200 {
			t.Fatalf("fit %d = %d, want 200\n%s", fit, code, srv.Output())
		}
	}
	// Fit 4 checkpoints fine, which brings the log to four times its
	// one-record baseline; the compaction then dies pre-rename, taking the
	// process with it.
	if code := srv.Predict(4); code == 200 {
		t.Fatalf("fit 4 survived its scheduled mid-compaction crash\n%s", srv.Output())
	}
	srv.ExpectKilled(15 * time.Second)

	oracle := CheckpointedModels(t, hist)
	if len(oracle) != 4 {
		t.Fatalf("old log holds %d models after mid-compaction crash, want all four", len(oracle))
	}

	srv2 := Start(t, []string{"-history", hist})
	srv2.WaitReady(15 * time.Second)
	SameKeySet(t, srv2.Models(), oracle, "warm start after mid-compaction crash")
	if got := StatInt(t, srv2.Stats(), "fits"); got != 0 {
		t.Errorf("restart refit %d models the old log already held, want 0", got)
	}
	srv2.GracefulStop(30 * time.Second)
}

// TestCrashMidFitLosesOnlyTheInFlightFit kills the process at the start
// of fit N: fits 1..N-1 are checkpointed and must all come back; the
// in-flight fit was never durable, is legitimately lost, and refits on
// demand after the restart.
func TestCrashMidFitLosesOnlyTheInFlightFit(t *testing.T) {
	seed := ChaosSeed(t)
	hist := filepath.Join(t.TempDir(), "models.jsonl")

	srv := Start(t, []string{"-history", hist},
		"PREDICT_FAULTS=point=service.fit,from=2,kill",
		fmt.Sprintf("PREDICT_FAULTS_SEED=%d", seed))
	srv.WaitReady(15 * time.Second)
	if code := srv.Predict(1); code != 200 {
		t.Fatalf("fit 1 = %d, want 200\n%s", code, srv.Output())
	}
	if code := srv.Predict(2); code == 200 {
		t.Fatalf("fit 2 survived its scheduled mid-fit crash\n%s", srv.Output())
	}
	srv.ExpectKilled(15 * time.Second)

	oracle := CheckpointedModels(t, hist)
	if len(oracle) != 1 {
		t.Fatalf("checkpoint log holds %d models, want only the completed fit", len(oracle))
	}

	srv2 := Start(t, []string{"-history", hist})
	srv2.WaitReady(15 * time.Second)
	SameKeySet(t, srv2.Models(), oracle, "warm start after mid-fit crash")
	// The lost fit is recomputed on demand — a crash loses work, never
	// the ability to redo it.
	if code := srv2.Predict(2); code != 200 {
		t.Fatalf("refit of the lost model = %d, want 200\n%s", code, srv2.Output())
	}
	if got := StatInt(t, srv2.Stats(), "fits"); got != 1 {
		t.Errorf("fits after refitting the lost model = %d, want 1", got)
	}
	srv2.GracefulStop(30 * time.Second)
}

// TestSigtermDrainsAndPersists pins the graceful half: SIGTERM drains
// (the log shows the supervised sequence), the process exits 0, and the
// shutdown snapshot compacts the checkpoint log to exactly the live
// model set.
func TestSigtermDrainsAndPersists(t *testing.T) {
	hist := filepath.Join(t.TempDir(), "models.jsonl")
	srv := Start(t, []string{"-history", hist})
	srv.WaitReady(15 * time.Second)
	for i := 1; i <= 2; i++ {
		if code := srv.Predict(uint64(i)); code != 200 {
			t.Fatalf("fit %d = %d\n%s", i, code, srv.Output())
		}
	}
	srv.GracefulStop(30 * time.Second)
	out := srv.Output()
	for _, want := range []string{"draining", "drain complete", "persisted 2 model(s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("drain log missing %q:\n%s", want, out)
		}
	}
	if got := CheckpointedModels(t, hist); len(got) != 2 {
		t.Errorf("persisted log holds %d models, want 2", len(got))
	}
}
