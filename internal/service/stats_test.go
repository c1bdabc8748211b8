package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestStatsEndpoint drives one cold and one warm request through the
// service and checks the /stats payload: hit ratio, fit counters, and the
// shared pool's configuration.
func TestStatsEndpoint(t *testing.T) {
	svc, server := newTestServer(t, Config{FitParallelism: 3})
	ctx := context.Background()

	if _, err := svc.Predict(ctx, testRequest()); err != nil {
		t.Fatalf("cold predict: %v", err)
	}
	if _, err := svc.Predict(ctx, testRequest()); err != nil {
		t.Fatalf("warm predict: %v", err)
	}

	resp, err := http.Get(server.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /stats = %d, want 200", resp.StatusCode)
	}
	var body struct {
		UptimeSeconds float64 `json:"uptime_seconds"`
		Stats         Stats   `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}

	st := body.Stats
	if st.Fits != 1 {
		t.Errorf("fits = %d, want 1", st.Fits)
	}
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", st.Hits, st.Misses)
	}
	if st.HitRatio != 0.5 {
		t.Errorf("hit_ratio = %v, want 0.5", st.HitRatio)
	}
	if st.PoolSize != 3 {
		t.Errorf("pool_size = %d, want the configured FitParallelism 3", st.PoolSize)
	}
	if st.InFlightFits != 0 || st.PoolInFlight != 0 || st.PoolDepth != 0 {
		t.Errorf("idle service reports in-flight work: %+v", st)
	}
	if st.FitTimeouts != 0 {
		t.Errorf("fit_timeouts = %d, want 0", st.FitTimeouts)
	}

	if code := mustStatus(t, http.MethodPost, server.URL+"/stats"); code != http.StatusMethodNotAllowed {
		t.Errorf("POST /stats = %d, want 405", code)
	}
}

// statsKeys is the /stats payload's key set, in the order it is served:
// the top-level object, then the "stats" object inside it.
var statsKeys = struct{ top, stats []string }{
	top: []string{"stats", "uptime_seconds"},
	stats: []string{
		"models", "graphs", "hits", "misses", "evictions", "hit_ratio",
		"fits", "in_flight_fits", "fit_timeouts", "pool_size", "pool_in_flight", "pool_depth",
		"requests", "coalesced", "fit_queue_cap", "fit_queue_depth", "shed",
		"breaker_trips", "breaker_open", "breaker_fast_fails", "torn_records_recovered",
		"uptime_seconds", "draining", "drain_rejected",
		"checkpoints_written", "checkpoint_failures", "compactions",
		"observations", "observed_keys", "blend_extrapolation", "blend_interpolation",
		"goroutines", "open_fds", "samples_drawn", "samples_reused",
	},
}

// TestStatsKeysPinnedAndDocumented reads /stats as a stream of JSON tokens,
// so a key that is deleted, renamed, added or moved fails here (decoding
// into Stats would ignore all four), and holds every key to a mention —
// backquoted or double-quoted — in docs/API.md's "## GET /stats" section.
func TestStatsKeysPinnedAndDocumented(t *testing.T) {
	_, server := newTestServer(t, Config{})
	resp, err := http.Get(server.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var nested []string
	top := objectKeys(t, json.NewDecoder(resp.Body), func(key string, dec *json.Decoder) bool {
		if key != "stats" {
			return false
		}
		nested = objectKeys(t, dec, nil)
		return true
	})
	if !slices.Equal(top, statsKeys.top) {
		t.Errorf("/stats keys = %q, want %q", top, statsKeys.top)
	}
	if !slices.Equal(nested, statsKeys.stats) {
		t.Errorf("/stats \"stats\" keys = %q, want %q", nested, statsKeys.stats)
	}

	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "API.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## GET /stats\n")
	if !ok {
		t.Fatal(`docs/API.md has no "## GET /stats" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	for _, key := range append(statsKeys.top, statsKeys.stats...) {
		if !strings.Contains(section, "`"+key+"`") && !strings.Contains(section, `"`+key+`"`) {
			t.Errorf("docs/API.md's GET /stats section does not name %q", key)
		}
	}
}

// objectKeys reads one JSON object from dec and returns its keys in order.
// value, if not nil, may consume a key's value itself and report that it
// did; every other value is skipped.
func objectKeys(t *testing.T, dec *json.Decoder, value func(key string, dec *json.Decoder) bool) []string {
	t.Helper()
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("want an object, got %v (%v)", tok, err)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		key := tok.(string)
		keys = append(keys, key)
		if value != nil && value(key, dec) {
			continue
		}
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dec.Token(); err != nil {
		t.Fatal(err)
	}
	return keys
}

// TestStatsCountSharedSamples pins samples_drawn / samples_reused: the
// second algorithm fitted on a (dataset, sample seed) reuses every sample
// the first drew — and answers exactly what a service that never saw the
// first would — while a fit with another seed draws its own.
func TestStatsCountSharedSamples(t *testing.T) {
	svc, server := newTestServer(t, Config{})
	ctx := context.Background()
	pipelines := int64(1 + len(testRequest().TrainingRatios))
	expect := func(step string, drawn, reused int64) {
		t.Helper()
		if st := svc.Stats(); st.SamplesDrawn != drawn || st.SamplesReused != reused {
			t.Fatalf("%s: samples drawn/reused = %d/%d, want %d/%d", step, st.SamplesDrawn, st.SamplesReused, drawn, reused)
		}
	}

	if _, err := svc.Predict(ctx, testRequest()); err != nil {
		t.Fatal(err)
	}
	expect("first algorithm", pipelines, 0)

	cc := testRequest()
	cc.Algorithm = "CC"
	shared, err := svc.Predict(ctx, cc)
	if err != nil {
		t.Fatal(err)
	}
	expect("second algorithm, same seed", pipelines, pipelines)
	alone, err := New(Config{}).Predict(ctx, cc)
	if err != nil {
		t.Fatal(err)
	}
	if shared.SuperstepSeconds != alone.SuperstepSeconds || shared.Iterations != alone.Iterations {
		t.Fatalf("a fit on reused samples predicts %v s / %d iterations, on its own samples %v s / %d",
			shared.SuperstepSeconds, shared.Iterations, alone.SuperstepSeconds, alone.Iterations)
	}

	reseeded := testRequest()
	reseeded.SampleSeed = 99
	if _, err := svc.Predict(ctx, reseeded); err != nil {
		t.Fatal(err)
	}
	expect("another seed", 2*pipelines, pipelines)

	// New keys go last, so the object an older client reads is a prefix.
	resp, err := http.Get(server.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`,"samples_drawn":%d,"samples_reused":%d}`, 2*pipelines, pipelines)
	if !strings.Contains(string(raw), want) {
		t.Fatalf("/stats does not end its stats object with %s: %s", want, raw)
	}
}

// TestFitTimeoutBoundsColdPath configures an unmeetable per-fit deadline
// and verifies the cold path fails with the deadline error instead of
// hanging, and that the timeout counter records it.
func TestFitTimeoutBoundsColdPath(t *testing.T) {
	svc := New(Config{FitTimeout: time.Nanosecond})
	_, err := svc.Predict(context.Background(), testRequest())
	if err == nil {
		t.Fatal("predict under 1ns fit deadline succeeded")
	}
	if st := svc.Stats(); st.FitTimeouts != 1 {
		t.Errorf("fit_timeouts = %d, want 1", st.FitTimeouts)
	}
}

func mustStatus(t *testing.T, method, url string) int {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}
