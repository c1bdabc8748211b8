package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"predict/internal/faultinject"
	"predict/internal/history"
)

// jsonBody encodes v for a raw http.Post whose response headers the test
// needs to inspect (postJSON discards them).
func jsonBody(t *testing.T, v any) io.Reader {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestCheckpointOnFitAndWarmStart pins the tentpole property: a fitted
// model is durably in the history log the moment the fit completes — no
// clean shutdown required — and a fresh service warm-started from that
// log answers the same request as a cache hit.
func TestCheckpointOnFitAndWarmStart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "models.jsonl")
	svc := New(Config{HistoryPath: path})
	if _, err := svc.Predict(t.Context(), testRequest()); err != nil {
		t.Fatal(err)
	}
	if got := svc.Stats().CheckpointsWritten; got != 1 {
		t.Fatalf("checkpoints_written = %d after one fit, want 1", got)
	}
	records, torn, err := history.LoadFile(path)
	if err != nil || torn != nil {
		t.Fatalf("checkpoint log: records err=%v torn=%v", err, torn)
	}
	if len(records) != 1 || records[0].Model == nil {
		t.Fatalf("checkpoint log holds %+v, want one model record", records)
	}

	warm := New(Config{HistoryPath: path})
	if warmed, skipped, err := warm.WarmFromHistory(path); warmed != 1 || skipped != 0 || err != nil {
		t.Fatalf("WarmFromHistory = (%d, %d, %v), want (1, 0, nil)", warmed, skipped, err)
	}
	resp, err := warm.Predict(t.Context(), testRequest())
	if err != nil {
		t.Fatal(err)
	}
	if !resp.CacheHit {
		t.Fatal("warm-started service refitted instead of hitting the checkpointed model")
	}
	if warm.Stats().Fits != 0 {
		t.Fatalf("warm-started service ran %d fits, want 0", warm.Stats().Fits)
	}
}

// fittedModelRecord fits testRequest once and returns the model record
// its checkpoint wrote.
func fittedModelRecord(t *testing.T) history.Record {
	t.Helper()
	path := filepath.Join(t.TempDir(), "models.jsonl")
	if _, err := New(Config{HistoryPath: path}).Predict(t.Context(), testRequest()); err != nil {
		t.Fatal(err)
	}
	records, _, err := history.LoadFile(path)
	if err != nil || len(records) != 1 || records[0].Model == nil {
		t.Fatalf("checkpoint log holds %+v (err %v), want one model record", records, err)
	}
	return records[0]
}

// warmFrom writes records to a fresh log and warm-starts a service from it.
func warmFrom(t *testing.T, records ...history.Record) (warmed, skipped int) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "models.jsonl")
	if err := history.AppendFileSync(path, records...); err != nil {
		t.Fatal(err)
	}
	warmed, skipped, err := New(Config{}).WarmFromHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	return warmed, skipped
}

// TestWarmFromHistoryRefusesEarlierSchema: a model record from a build
// whose feature pool still ended in the always-zero SpillBytes column (8
// names, 8-wide rows) is refused, not migrated: it warms nothing and is
// counted as skipped, and its schema error names both widths.
func TestWarmFromHistoryRefusesEarlierSchema(t *testing.T) {
	rec := fittedModelRecord(t)
	rec.FeatureNames = append(rec.FeatureNames, "SpillBytes")
	for _, rows := range [][]history.IterationRow{rec.Iterations, rec.Model.TrainingRows} {
		for i := range rows {
			rows[i].Features = append(rows[i].Features, 0)
		}
	}
	if warmed, skipped := warmFrom(t, rec); warmed != 0 || skipped != 1 {
		t.Errorf("warm start from an 8-wide record: %d warmed, %d skipped; want 0 and 1", warmed, skipped)
	}
	_, err := rec.TrainingRun()
	if err == nil || !strings.Contains(err.Error(), "8 features, this build expects 7") {
		t.Errorf("TrainingRun of an 8-wide record: %v, want an error naming both widths", err)
	}
}

// TestWarmFromHistoryRefusesUnknownMode: a persisted feature mode outside
// the two this build has (critical share 0, mean worker 1) is skipped and
// counted rather than warmed into a model that answers with share 1.
func TestWarmFromHistoryRefusesUnknownMode(t *testing.T) {
	rec := fittedModelRecord(t)
	var records []history.Record
	for _, mode := range []int{2, 7} {
		meta := *rec.Model
		meta.Mode = mode
		r := rec
		r.Model = &meta
		records = append(records, r)
	}
	if warmed, skipped := warmFrom(t, records...); warmed != 0 || skipped != 2 {
		t.Errorf("warm start from modes 2 and 7: %d warmed, %d skipped; want 0 and 2", warmed, skipped)
	}
	if warmed, skipped := warmFrom(t, rec); warmed != 1 || skipped != 0 {
		t.Errorf("warm start from the unmodified record: %d warmed, %d skipped; want 1 and 0", warmed, skipped)
	}
}

// TestCheckpointCompaction drives the growth-factor trigger: refitting
// the same keys (evicted by a tiny LRU) appends stale generations until
// the log holds four times its baseline, at which point compaction
// rewrites it to the newest record per key.
func TestCheckpointCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "models.jsonl")
	svc := New(Config{
		HistoryPath: path,
		MaxModels:   1, // each alternation below evicts and refits
	})
	a := testRequest()
	b := testRequest()
	b.SampleSeed = 2 // different model key, same cheap pipeline
	for i, req := range []PredictRequest{a, b, a, b} {
		if _, err := svc.Predict(t.Context(), req); err != nil {
			t.Fatalf("fit %d: %v", i, err)
		}
	}
	st := svc.Stats()
	if st.CheckpointsWritten != 4 {
		t.Errorf("checkpoints_written = %d, want 4", st.CheckpointsWritten)
	}
	if st.Compactions != 1 {
		t.Errorf("compactions = %d, want 1 (at the fourth record)", st.Compactions)
	}
	if st.CheckpointFailures != 0 {
		t.Errorf("checkpoint_failures = %d, want 0", st.CheckpointFailures)
	}
	records, torn, err := history.LoadFile(path)
	if err != nil || torn != nil {
		t.Fatalf("compacted log: err=%v torn=%v", err, torn)
	}
	if len(records) != 2 {
		t.Fatalf("compacted log holds %d records, want 2 (newest per key)", len(records))
	}
}

// TestCheckpointFailureDegradesNotFails: an unwritable history volume
// must not fail the prediction — the model is served and the failure
// counted for the readiness probe to surface.
func TestCheckpointFailureDegradesNotFails(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "models.jsonl") // parent missing: appends fail
	svc := New(Config{HistoryPath: path})
	resp, err := svc.Predict(t.Context(), testRequest())
	if err != nil {
		t.Fatalf("prediction failed because checkpointing failed: %v", err)
	}
	if resp.CacheHit {
		t.Fatal("expected a cold fit")
	}
	st := svc.Stats()
	if st.CheckpointFailures != 1 || st.CheckpointsWritten != 0 {
		t.Fatalf("failures=%d written=%d, want 1/0", st.CheckpointFailures, st.CheckpointsWritten)
	}
}

// TestHardStopCancelsInFlightFit is the satellite regression test: a fit
// stalled mid-pipeline when HardStop fires must stop promptly, fail its
// request with 503, and free its fit-queue slot — no goroutine parked on
// the injected delay.
func TestHardStopCancelsInFlightFit(t *testing.T) {
	restore := faultinject.Enable(faultinject.NewInjector(chaosSeed(t), faultinject.Rule{
		Point: faultinject.PointServiceFit,
		Delay: time.Minute, // far longer than the test: only cancellation ends it
	}))
	defer restore()

	svc := New(Config{})
	errc := make(chan error, 1)
	go func() {
		_, err := svc.Predict(t.Context(), testRequest())
		errc <- err
	}()
	waitFor(t, 5*time.Second, "the fit to hold its queue slot", func() bool {
		return svc.Stats().FitQueueDepth == 1
	})
	svc.HardStop()
	select {
	case err := <-errc:
		var se *Error
		if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable {
			t.Fatalf("canceled fit returned %v, want a 503 service error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("HardStop did not cancel the stalled fit")
	}
	waitFor(t, 5*time.Second, "the fit-queue slot to free", func() bool {
		st := svc.Stats()
		return st.FitQueueDepth == 0 && st.InFlightFits == 0
	})
	if got := svc.Stats().FitTimeouts; got != 0 {
		t.Errorf("fit_timeouts = %d after shutdown cancellation, want 0", got)
	}
}

// TestControllerSupervisedDrain walks the whole drain sequence over real
// TCP: readiness flips to draining, new predictions get 503 with
// Connection: close, observability stays up, the pprof listener closes,
// the in-flight request finishes inside the deadline, and the serving
// listener closes last.
func TestControllerSupervisedDrain(t *testing.T) {
	restore := faultinject.Enable(faultinject.NewInjector(chaosSeed(t), faultinject.Rule{
		Point: faultinject.PointServiceFit,
		Delay: 2 * time.Second, // the in-flight window the drain overlaps
		Count: 1,
	}))
	defer restore()

	svc := New(Config{})
	ctrl, err := StartController(svc, ControllerConfig{
		Addr:         "127.0.0.1:0",
		PprofAddr:    "127.0.0.1:0",
		PprofHandler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) }),
		DrainTimeout: 30 * time.Second,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ctrl.ln.Addr().String()
	pprofURL := "http://" + ctrl.pprofLn.Addr().String()

	if code, _ := getJSON(t, base+"/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz before drain = %d, want 200", code)
	}
	if resp, err := http.Get(pprofURL + "/debug/pprof/"); err != nil {
		t.Fatalf("pprof before drain: %v", err)
	} else {
		resp.Body.Close()
	}

	// The stalled in-flight request the drain must wait for.
	inflight := make(chan int, 1)
	go func() {
		code, _ := postJSON(t, base+"/predict", testRequest())
		inflight <- code
	}()
	waitFor(t, 5*time.Second, "the cold fit to start", func() bool {
		return svc.Stats().FitQueueDepth == 1
	})

	drained := make(chan error, 1)
	go func() { drained <- ctrl.Drain() }()
	waitFor(t, 5*time.Second, "draining to begin", func() bool { return svc.draining.Load() })

	// New work: refused with 503 + Connection: close.
	req := testRequest()
	resp, err := http.Post(base+"/predict", "application/json", jsonBody(t, req))
	if err != nil {
		t.Fatalf("predict during drain: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("predict during drain = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Connection") != "close" && !resp.Close {
		t.Error("drain rejection did not ask the client to close the connection")
	}
	// Readiness: 503 "draining". Observability: still served.
	rresp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz during drain = %d, want 503", rresp.StatusCode)
	}
	if code, _ := getJSON(t, base+"/stats"); code != http.StatusOK {
		t.Errorf("/stats during drain = %d, want 200", code)
	}
	// The pprof listener is already closed.
	waitFor(t, 5*time.Second, "the pprof listener to close", func() bool {
		resp, err := http.Get(pprofURL + "/debug/pprof/")
		if err == nil {
			resp.Body.Close()
		}
		return err != nil
	})

	// The stalled request finishes inside the deadline; the drain follows.
	if code := <-inflight; code != http.StatusOK {
		t.Fatalf("in-flight request during drain = %d, want 200", code)
	}
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain with the request finished in time: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("drain did not complete")
	}
	if st := svc.Stats(); !st.Draining || st.DrainRejected < 1 {
		t.Errorf("stats after drain: draining=%v drain_rejected=%d, want true/>=1", st.Draining, st.DrainRejected)
	}
	// The serving listener is closed; the serve loop reported a clean exit.
	if _, err := http.Get(base + "/stats"); err == nil {
		t.Error("serving listener still accepting after drain")
	}
	if err := <-ctrl.Err(); err != http.ErrServerClosed {
		t.Errorf("serve loop exited with %v, want http.ErrServerClosed", err)
	}
}

// TestControllerDrainDeadlineHardStops: when in-flight fits outlive the
// drain deadline, the controller cancels them, their requests answer 503,
// and Drain still returns (reporting the deadline) instead of hanging.
func TestControllerDrainDeadlineHardStops(t *testing.T) {
	restore := faultinject.Enable(faultinject.NewInjector(chaosSeed(t), faultinject.Rule{
		Point: faultinject.PointServiceFit,
		Delay: time.Minute,
		Count: 1,
	}))
	defer restore()

	svc := New(Config{})
	ctrl, err := StartController(svc, ControllerConfig{
		Addr:         "127.0.0.1:0",
		DrainTimeout: 200 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ctrl.ln.Addr().String()

	inflight := make(chan int, 1)
	go func() {
		code, _ := postJSON(t, base+"/predict", testRequest())
		inflight <- code
	}()
	waitFor(t, 5*time.Second, "the cold fit to start", func() bool {
		return svc.Stats().FitQueueDepth == 1
	})

	start := time.Now()
	err = ctrl.Drain()
	if err == nil {
		t.Fatal("drain past its deadline reported success")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("drain took %v despite a 200ms deadline", elapsed)
	}
	if code := <-inflight; code != http.StatusServiceUnavailable {
		t.Fatalf("request whose fit was canceled = %d, want 503", code)
	}
	waitFor(t, 5*time.Second, "the fit-queue slot to free", func() bool {
		return svc.Stats().FitQueueDepth == 0
	})
}

// TestReadinessDrainingOverridesProbes: draining answers NOT ready even
// when every dependency probe would pass.
func TestReadinessDrainingOverridesProbes(t *testing.T) {
	svc := New(Config{HistoryPath: filepath.Join(t.TempDir(), "h.jsonl")})
	if rd := svc.Readiness(); !rd.Ready {
		t.Fatalf("fresh service not ready: %+v", rd)
	}
	svc.BeginDrain()
	rd := svc.Readiness()
	if rd.Ready || rd.Status != "draining" {
		t.Fatalf("draining readiness = %+v, want not-ready/draining", rd)
	}
}

// TestRedirectHistoryDivertsCheckpoints: after a divert (unreadable
// warm-start file), checkpoints land at the new path and the original is
// untouched.
func TestRedirectHistoryDivertsCheckpoints(t *testing.T) {
	dir := t.TempDir()
	orig := filepath.Join(dir, "models.jsonl")
	if err := os.WriteFile(orig, []byte("{corrupt\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	svc := New(Config{HistoryPath: orig})
	diverted := orig + ".recovered"
	svc.RedirectHistory(diverted)
	if _, err := svc.Predict(t.Context(), testRequest()); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(orig); err != nil || string(data) != "{corrupt\n" {
		t.Fatalf("original history modified after divert: %q err=%v", data, err)
	}
	records, _, err := history.LoadFile(diverted)
	if err != nil || len(records) != 1 {
		t.Fatalf("diverted log: %d records, err=%v, want 1 checkpoint", len(records), err)
	}
}
