package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"predict/internal/core"
	"predict/internal/history"
)

// observeUnknownKeyError produces the live error Observe answers for a
// key no fitted model carries, for the error-to-HTTP mapping table.
func observeUnknownKeyError(t *testing.T) error {
	t.Helper()
	svc := New(Config{})
	_, err := svc.Observe(context.Background(), ObserveRequest{
		ModelKey: "no-such-key", ActualSeconds: 1,
	})
	if err == nil {
		t.Fatal("Observe(unknown key) did not fail")
	}
	return err
}

// TestObserveValidation pins the /observe request contract: missing or
// malformed fields are 400s, an unknown model key is a 404, and none of
// them leave a record behind.
func TestObserveValidation(t *testing.T) {
	svc, server := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  any
		want int
	}{
		{"missing model key", ObserveRequest{ActualSeconds: 1}, http.StatusBadRequest},
		{"zero actual seconds", ObserveRequest{ModelKey: "k", ActualSeconds: 0}, http.StatusBadRequest},
		{"negative actual seconds", ObserveRequest{ModelKey: "k", ActualSeconds: -3}, http.StatusBadRequest},
		{"actual seconds past the bound", ObserveRequest{ModelKey: "k", ActualSeconds: 1e200}, http.StatusBadRequest},
		{"negative workers", ObserveRequest{ModelKey: "k", ActualSeconds: 1, Workers: -1}, http.StatusBadRequest},
		{"unknown field", `{"model_key":"k","actual":1}`, http.StatusBadRequest},
		{"unknown model key", ObserveRequest{ModelKey: "k", ActualSeconds: 1}, http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _ := postJSON(t, server.URL+"/observe", tc.req)
			if status != tc.want {
				t.Fatalf("HTTP %d, want %d", status, tc.want)
			}
		})
	}
	if got := svc.Stats().Observations; got != 0 {
		t.Fatalf("rejected observations were recorded: %d", got)
	}
}

// TestObserveClosedLoop drives the feedback loop over HTTP: before the
// threshold, predictions stay in the extrapolation regime with the
// sample-fit estimate untouched; at the threshold the interpolation
// regime answers, strictly closer to the observed runtimes, with the
// interval and /stats bookkeeping following along.
func TestObserveClosedLoop(t *testing.T) {
	svc, server := newTestServer(t, Config{})

	status, raw := postJSON(t, server.URL+"/predict", testRequest())
	if status != http.StatusOK {
		t.Fatalf("cold predict: HTTP %d (%v)", status, raw)
	}
	base := decodePrediction(t, raw)
	if base.BlendRegime != "extrapolation" || base.Observations != 0 {
		t.Fatalf("cold prediction regime %q/%d, want extrapolation/0", base.BlendRegime, base.Observations)
	}
	if base.P50Seconds != base.SuperstepSeconds || base.P95Seconds < base.P50Seconds {
		t.Fatalf("interval p50=%v p95=%v around mean %v is malformed",
			base.P50Seconds, base.P95Seconds, base.SuperstepSeconds)
	}

	// Feed back runtimes clustered 30% above the estimate.
	target := base.SuperstepSeconds * 1.3
	threshold := core.DefaultObservationThreshold
	offsets := []float64{0.98, 1.01, 0.99, 1.02, 1.0, 0.97, 1.03}
	for i := 0; i < threshold; i++ {
		status, obsRaw := postJSON(t, server.URL+"/observe", ObserveRequest{
			ModelKey: base.ModelKey, ActualSeconds: target * offsets[i%len(offsets)],
		})
		if status != http.StatusOK {
			t.Fatalf("observe %d: HTTP %d (%v)", i, status, obsRaw)
		}

		status, raw = postJSON(t, server.URL+"/predict", testRequest())
		if status != http.StatusOK {
			t.Fatalf("predict after %d observations: HTTP %d", i+1, status)
		}
		got := decodePrediction(t, raw)
		if got.Observations != i+1 {
			t.Fatalf("after %d observations: response reports %d", i+1, got.Observations)
		}
		if i+1 < threshold {
			if got.BlendRegime != "extrapolation" {
				t.Fatalf("below threshold (%d obs): regime %q", i+1, got.BlendRegime)
			}
			if got.SuperstepSeconds != base.SuperstepSeconds {
				t.Fatalf("below threshold: prediction moved (%v -> %v)",
					base.SuperstepSeconds, got.SuperstepSeconds)
			}
		}
	}
	blended := decodePrediction(t, raw)
	if blended.BlendRegime != "interpolation" {
		t.Fatalf("at threshold: regime %q, want interpolation", blended.BlendRegime)
	}
	if baseErr, blendErr := math.Abs(base.SuperstepSeconds-target), math.Abs(blended.SuperstepSeconds-target); blendErr >= baseErr {
		t.Errorf("feedback did not shrink error: |%v - %v| vs |%v - %v|",
			blended.SuperstepSeconds, target, base.SuperstepSeconds, target)
	}
	if blended.P95Seconds < blended.P50Seconds || blended.StdDevSeconds <= 0 {
		t.Errorf("blended interval malformed: p50=%v p95=%v sd=%v",
			blended.P50Seconds, blended.P95Seconds, blended.StdDevSeconds)
	}

	st := svc.Stats()
	if st.Observations != int64(threshold) || st.ObservedKeys != 1 {
		t.Errorf("stats observations=%d keys=%d, want %d/1", st.Observations, st.ObservedKeys, threshold)
	}
	if st.BlendInterpolation == 0 || st.BlendExtrapolation == 0 {
		t.Errorf("blend regime tallies not kept: extrapolation=%d interpolation=%d",
			st.BlendExtrapolation, st.BlendInterpolation)
	}

	// The long run: thirty observations whose offsets average exactly 1.0
	// every five, so at each five-observation checkpoint what is left of
	// the error is the blend's weight on the sample rows alone. It must
	// fall strictly from checkpoint to checkpoint and at least halve over
	// the run (measured ~3000×), and the target must sit inside the
	// central interval the response states at nine checkpoints in ten.
	t.Run("thirty observations", func(t *testing.T) {
		svc, ctx, req := New(Config{}), context.Background(), testRequest()
		base, err := svc.Predict(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		target := base.SuperstepSeconds * 1.30
		offsets := []float64{0.98, 1.02, 0.99, 1.01, 1.00}
		relErr := func(pred float64) float64 { return math.Abs(pred-target) / target }
		errBefore := relErr(base.SuperstepSeconds)
		prev, covered, checkpoints := errBefore, 0, 0
		for i := 0; i < 30; i++ {
			if _, err := svc.Observe(ctx, ObserveRequest{
				ModelKey: base.ModelKey, ActualSeconds: target * offsets[i%len(offsets)],
			}); err != nil {
				t.Fatal(err)
			}
			resp, err := svc.Predict(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if (i+1)%len(offsets) != 0 {
				continue
			}
			if resp.BlendRegime != "interpolation" {
				t.Fatalf("%d observations in: regime %q, want interpolation", i+1, resp.BlendRegime)
			}
			e := relErr(resp.SuperstepSeconds)
			if e >= prev {
				t.Errorf("error did not shrink at %d observations: %.6f -> %.6f", i+1, prev, e)
			}
			prev = e
			checkpoints++
			if lo := 2*resp.P50Seconds - resp.P95Seconds; target >= lo && target <= resp.P95Seconds {
				covered++
			}
		}
		t.Logf("error %.4f -> %.6f (%.0fx), target inside the interval at %d of %d checkpoints",
			errBefore, prev, errBefore/prev, covered, checkpoints)
		if prev*2 > errBefore {
			t.Errorf("thirty observations shrank the error %.4f -> %.4f, want at least 2x", errBefore, prev)
		}
		if float64(covered) < 0.9*float64(checkpoints) {
			t.Errorf("target inside [2*p50-p95, p95] at %d of %d checkpoints, want 90%%", covered, checkpoints)
		}
	})
}

// TestPredictDeadlineProbability pins probability_of_deadline: absent
// without a deadline, near 1 for a generous deadline, near 0 for an
// impossible one, and rejected when negative.
func TestPredictDeadlineProbability(t *testing.T) {
	_, server := newTestServer(t, Config{})

	req := testRequest()
	status, raw := postJSON(t, server.URL+"/predict", req)
	if status != http.StatusOK {
		t.Fatalf("predict: HTTP %d", status)
	}
	if _, present := raw["probability_of_deadline"]; present {
		t.Error("probability_of_deadline present without deadline_seconds")
	}
	base := decodePrediction(t, raw)

	req.DeadlineSeconds = base.SuperstepSeconds * 10
	status, raw = postJSON(t, server.URL+"/predict", req)
	if status != http.StatusOK {
		t.Fatalf("predict with deadline: HTTP %d", status)
	}
	generous := decodePrediction(t, raw)
	if generous.ProbabilityOfDeadline == nil || *generous.ProbabilityOfDeadline < 0.99 {
		t.Errorf("generous deadline probability = %v, want ~1", generous.ProbabilityOfDeadline)
	}

	req.DeadlineSeconds = base.SuperstepSeconds / 10
	status, raw = postJSON(t, server.URL+"/predict", req)
	if status != http.StatusOK {
		t.Fatalf("predict with tight deadline: HTTP %d", status)
	}
	tight := decodePrediction(t, raw)
	if tight.ProbabilityOfDeadline == nil || *tight.ProbabilityOfDeadline > 0.01 {
		t.Errorf("impossible deadline probability = %v, want ~0", tight.ProbabilityOfDeadline)
	}

	req.DeadlineSeconds = -1
	if status, _ := postJSON(t, server.URL+"/predict", req); status != http.StatusBadRequest {
		t.Errorf("negative deadline: HTTP %d, want 400", status)
	}
}

// TestObservationsSurviveRestart pins the persistence loop: observations
// ride the checkpoint log as "observation" records, and a restarted
// service warm-starts both the model and its feedback window, answering
// in the interpolation regime immediately.
func TestObservationsSurviveRestart(t *testing.T) {
	histPath := filepath.Join(t.TempDir(), "history.jsonl")
	svc := New(Config{HistoryPath: histPath})

	resp, err := svc.Predict(context.Background(), testRequest())
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	target := resp.SuperstepSeconds * 1.3
	for i := 0; i < core.DefaultObservationThreshold; i++ {
		if _, err := svc.Observe(context.Background(), ObserveRequest{
			ModelKey: resp.ModelKey, ActualSeconds: target,
		}); err != nil {
			t.Fatalf("Observe %d: %v", i, err)
		}
	}

	restarted := New(Config{HistoryPath: histPath})
	if _, _, err := restarted.WarmFromHistory(histPath); err != nil {
		t.Fatalf("WarmFromHistory: %v", err)
	}
	if got := restarted.Stats().Observations; got != int64(core.DefaultObservationThreshold) {
		t.Fatalf("restarted service warm-started %d observations, want %d",
			got, core.DefaultObservationThreshold)
	}
	warm, err := restarted.Predict(context.Background(), testRequest())
	if err != nil {
		t.Fatalf("Predict after restart: %v", err)
	}
	if !warm.CacheHit {
		t.Error("restarted service refitted instead of warm-starting the model")
	}
	if warm.BlendRegime != "interpolation" {
		t.Errorf("restarted service regime %q, want interpolation", warm.BlendRegime)
	}
}

// TestObservationRecordsKeepWorkers pins that an observation's history
// record is the same whichever path writes it: the live /observe append,
// the shutdown snapshot, and the snapshot of a service warm-started from
// the log all carry its workers, not just its seconds.
func TestObservationRecordsKeepWorkers(t *testing.T) {
	dir := t.TempDir()
	histPath := filepath.Join(dir, "history.jsonl")
	svc := New(Config{HistoryPath: histPath})
	ctx := context.Background()
	resp, err := svc.Predict(ctx, testRequest())
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	for i, workers := range []int{8, 0, 16} {
		if _, err := svc.Observe(ctx, ObserveRequest{
			ModelKey: resp.ModelKey, ActualSeconds: float64(10 + i), Workers: workers,
		}); err != nil {
			t.Fatalf("Observe %d: %v", i, err)
		}
	}
	observations := func(path string) []history.ObservationMeta {
		t.Helper()
		records, _, err := history.LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var out []history.ObservationMeta
		for _, rec := range records {
			if rec.Observation != nil {
				out = append(out, *rec.Observation)
			}
		}
		return out
	}
	appended := observations(histPath)
	if len(appended) != 3 || appended[0].Workers != 8 {
		t.Fatalf("live append wrote %+v", appended)
	}

	snapshot := filepath.Join(dir, "snapshot.jsonl")
	if _, err := svc.SaveHistory(snapshot); err != nil {
		t.Fatal(err)
	}
	restarted := New(Config{})
	if _, _, err := restarted.WarmFromHistory(histPath); err != nil {
		t.Fatal(err)
	}
	resnapshot := filepath.Join(dir, "resnapshot.jsonl")
	if _, err := restarted.SaveHistory(resnapshot); err != nil {
		t.Fatal(err)
	}
	for name, path := range map[string]string{"snapshot": snapshot, "warm-started snapshot": resnapshot} {
		if got := observations(path); !slices.Equal(got, appended) {
			t.Errorf("%s wrote %+v, the live append %+v", name, got, appended)
		}
	}
}

// poisonSeconds are six observations the closed loop cannot use: past
// maxActualSeconds, yet finite. Accepted, they would make the key's next
// prediction report an infinite stddev and a NaN R², which no JSON
// encoder writes — every later /predict of the key would be a 500.
func poisonSeconds() []float64 {
	out := make([]float64, 6)
	for i := range out {
		out[i] = 1e200 * (1 + float64(i)/10)
	}
	return out
}

// assertPredictable fails unless a /predict of req answers 200 with every
// float of the body finite.
func assertPredictable(t *testing.T, svc *Service, req PredictRequest) {
	t.Helper()
	resp, err := svc.Predict(context.Background(), req)
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	for name, v := range map[string]float64{
		"superstep_seconds": resp.SuperstepSeconds, "model_r2": resp.ModelR2,
		"p50_seconds": resp.P50Seconds, "p95_seconds": resp.P95Seconds, "stddev_seconds": resp.StdDevSeconds,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v after poisoning attempts", name, v)
		}
	}
	rec := httptest.NewRecorder()
	body, _ := json.Marshal(req)
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Errorf("POST /predict after poisoning attempts: HTTP %d: %s", rec.Code, rec.Body)
	}
}

// TestObserveRejectsPoisonedSeconds pins that one client cannot poison a
// model key through /observe: a runtime past maxActualSeconds is a 400
// naming the field, and the key keeps answering.
func TestObserveRejectsPoisonedSeconds(t *testing.T) {
	svc := New(Config{})
	ctx := context.Background()
	first, err := svc.Predict(ctx, testRequest())
	if err != nil {
		t.Fatal(err)
	}
	for _, secs := range poisonSeconds() {
		_, err := svc.Observe(ctx, ObserveRequest{ModelKey: first.ModelKey, ActualSeconds: secs})
		var se *Error
		if !errors.As(err, &se) || se.Status != http.StatusBadRequest || !strings.Contains(se.Msg, "actual_seconds") {
			t.Fatalf("Observe(%v): %v, want a 400 naming actual_seconds", secs, err)
		}
	}
	if _, err := svc.Observe(ctx, ObserveRequest{ModelKey: first.ModelKey, ActualSeconds: maxActualSeconds}); err != nil {
		t.Fatalf("Observe at the bound: %v", err)
	}
	if got := svc.Stats().Observations; got != 1 {
		t.Fatalf("%d observations recorded, want only the one at the bound", got)
	}
	assertPredictable(t, svc, testRequest())
}

// TestWarmFromHistorySkipsPoisonedSeconds pins the same bound on replay:
// observation records past maxActualSeconds in a history log — written
// before the bound existed — are skipped and counted, and the restarted
// key answers.
func TestWarmFromHistorySkipsPoisonedSeconds(t *testing.T) {
	histPath := filepath.Join(t.TempDir(), "history.jsonl")
	svc := New(Config{HistoryPath: histPath})
	first, err := svc.Predict(context.Background(), testRequest())
	if err != nil {
		t.Fatal(err)
	}
	var records []history.Record
	for _, secs := range poisonSeconds() {
		records = append(records, history.NewObservation(first.ModelKey, secs, 0))
	}
	if err := history.AppendFileSync(histPath, records...); err != nil {
		t.Fatal(err)
	}

	restarted := New(Config{HistoryPath: histPath})
	warmed, skipped, err := restarted.WarmFromHistory(histPath)
	if err != nil {
		t.Fatal(err)
	}
	if warmed != 1 || skipped != len(records) {
		t.Errorf("warm start: %d warmed, %d skipped; want 1 and the %d poisoned observations", warmed, skipped, len(records))
	}
	if got := restarted.Stats().Observations; got != 0 {
		t.Errorf("%d poisoned observations replayed into the window", got)
	}
	assertPredictable(t, restarted, testRequest())
}
