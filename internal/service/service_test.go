package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// testRequest is a fast request: tiny graph, coarse tolerance, two
// training ratios.
func testRequest() PredictRequest {
	return PredictRequest{
		Dataset:        "Wiki",
		Scale:          0.02,
		Algorithm:      "PR",
		Epsilon:        0.01,
		Ratio:          0.15,
		TrainingRatios: []float64{0.1, 0.2},
	}
}

// modelKey is appendModelKey as a standalone string.
func (s *Service) modelKey(r PredictRequest, registryKey string) string {
	return string(s.appendModelKey(nil, r, registryKey))
}

func newTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	server := httptest.NewServer(svc.Handler())
	t.Cleanup(server.Close)
	return svc, server
}

// postJSON posts v and returns the status code and decoded body.
func postJSON(t *testing.T, url string, v any) (int, map[string]json.RawMessage) {
	t.Helper()
	var body bytes.Buffer
	if s, ok := v.(string); ok {
		body.WriteString(s)
	} else if err := json.NewEncoder(&body).Encode(v); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, out
}

func decodePrediction(t *testing.T, raw map[string]json.RawMessage) PredictResponse {
	t.Helper()
	blob, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	var pr PredictResponse
	if err := json.Unmarshal(blob, &pr); err != nil {
		t.Fatal(err)
	}
	return pr
}

func TestPredictEndpointColdThenWarm(t *testing.T) {
	svc, server := newTestServer(t, Config{})

	status, raw := postJSON(t, server.URL+"/predict", testRequest())
	if status != http.StatusOK {
		t.Fatalf("cold predict: HTTP %d (%v)", status, raw)
	}
	cold := decodePrediction(t, raw)
	if cold.CacheHit {
		t.Error("first request reported a cache hit")
	}
	if cold.Iterations <= 0 || cold.SuperstepSeconds <= 0 {
		t.Errorf("degenerate prediction: %+v", cold)
	}

	status, raw = postJSON(t, server.URL+"/predict", testRequest())
	if status != http.StatusOK {
		t.Fatalf("warm predict: HTTP %d", status)
	}
	warm := decodePrediction(t, raw)
	if !warm.CacheHit {
		t.Error("second identical request missed the cache")
	}
	if warm.SuperstepSeconds != cold.SuperstepSeconds || warm.Iterations != cold.Iterations {
		t.Errorf("warm prediction differs from cold: warm %+v cold %+v", warm, cold)
	}
	if got := svc.Stats().Fits; got != 1 {
		t.Errorf("fits = %d, want 1", got)
	}
}

func TestPredictMalformedAndInvalidInput(t *testing.T) {
	_, server := newTestServer(t, Config{})
	cases := []struct {
		name string
		body any
		want int
	}{
		{"malformed json", `{"dataset": "Wiki",`, http.StatusBadRequest},
		{"unknown field", `{"dataset":"Wiki","algorithm":"PR","nope":1}`, http.StatusBadRequest},
		{"missing dataset", PredictRequest{Algorithm: "PR"}, http.StatusBadRequest},
		{"unknown dataset", PredictRequest{Dataset: "XX", Algorithm: "PR"}, http.StatusBadRequest},
		{"unknown algorithm", PredictRequest{Dataset: "Wiki", Algorithm: "FOO"}, http.StatusBadRequest},
		{"bad ratio", func() any { r := testRequest(); r.Ratio = 1.5; return r }(), http.StatusBadRequest},
		{"negative epsilon", func() any { r := testRequest(); r.Epsilon = -1; return r }(), http.StatusBadRequest},
		{"epsilon not below 1", func() any { r := testRequest(); r.Epsilon = 5; return r }(), http.StatusBadRequest},
		{"bad method", func() any { r := testRequest(); r.Method = "ZZZ"; return r }(), http.StatusBadRequest},
		{"bad training ratio", func() any { r := testRequest(); r.TrainingRatios = []float64{-0.1}; return r }(), http.StatusBadRequest},
		{"scale above limit", func() any { r := testRequest(); r.Scale = 1e4; return r }(), http.StatusBadRequest},
		{"too many training ratios", func() any {
			r := testRequest()
			r.TrainingRatios = make([]float64, maxTrainingRatios+1)
			for i := range r.TrainingRatios {
				r.TrainingRatios[i] = 0.1
			}
			return r
		}(), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, raw := postJSON(t, server.URL+"/predict", tc.body)
			if status != tc.want {
				t.Errorf("HTTP %d, want %d (%v)", status, tc.want, raw)
			}
			if _, ok := raw["error"]; !ok {
				t.Error("error response missing \"error\" field")
			}
		})
	}
}

func TestPredictMethodNotAllowed(t *testing.T) {
	_, server := newTestServer(t, Config{})
	resp, err := http.Get(server.URL + "/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /predict: HTTP %d, want 405", resp.StatusCode)
	}
}

func TestBatchSharesOneModelAcrossWhatIfSweep(t *testing.T) {
	svc, server := newTestServer(t, Config{})

	var batch BatchRequest
	for _, w := range []int{4, 8, 16} {
		req := testRequest()
		req.Workers = w
		batch.Requests = append(batch.Requests, req)
	}
	// One malformed item must not poison the others.
	bad := testRequest()
	bad.Algorithm = "NOPE"
	batch.Requests = append(batch.Requests, bad)

	status, raw := postJSON(t, server.URL+"/predict/batch", batch)
	if status != http.StatusOK {
		t.Fatalf("batch: HTTP %d (%v)", status, raw)
	}
	var br BatchResponse
	blob, _ := json.Marshal(raw)
	if err := json.Unmarshal(blob, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Responses) != 4 {
		t.Fatalf("got %d responses, want 4", len(br.Responses))
	}
	var times []float64
	for i, item := range br.Responses[:3] {
		if item.Error != "" {
			t.Fatalf("item %d failed: %s", i, item.Error)
		}
		times = append(times, item.Response.SuperstepSeconds)
	}
	if br.Responses[3].Error == "" {
		t.Error("malformed batch item did not report an error")
	}
	// The what-if sweep varies only the worker count, so all items share
	// one fitted model...
	if got := svc.Stats().Fits; got != 1 {
		t.Errorf("fits = %d, want 1 (what-if sweep must share the model)", got)
	}
	// ...but more workers must still predict faster runtimes.
	if !(times[0] > times[1] && times[1] > times[2]) {
		t.Errorf("predicted seconds not decreasing in workers: %v", times)
	}
}

func TestConcurrentIdenticalRequestsFitOnce(t *testing.T) {
	svc, server := newTestServer(t, Config{})

	const n = 12
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, raw := postJSON(t, server.URL+"/predict", testRequest())
			if status != http.StatusOK {
				errs[i] = fmt.Errorf("HTTP %d: %v", status, raw)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := svc.Stats().Fits; got != 1 {
		t.Errorf("fits = %d, want 1 (single-flight must collapse concurrent misses)", got)
	}
	if got := svc.Stats().Models; got != 1 {
		t.Errorf("models = %d, want 1", got)
	}
}

func TestModelCacheLRUEviction(t *testing.T) {
	svc := New(Config{MaxModels: 2})
	ctx := context.Background()

	reqs := make([]PredictRequest, 3)
	for i := range reqs {
		reqs[i] = testRequest()
		reqs[i].SampleSeed = uint64(i + 1) // distinct model keys
	}
	for _, r := range reqs {
		if _, err := svc.Predict(ctx, r); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.Stats()
	if st.Models != 2 {
		t.Errorf("models = %d, want 2 (LRU bound)", st.Models)
	}
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	// The first request's model (LRU victim) must refit; the last two hit.
	for i, r := range reqs {
		resp, err := svc.Predict(ctx, r)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 && resp.CacheHit {
			t.Error("evicted model reported a cache hit")
		}
	}
}

// TestCacheExactLRUAtDefaultCapacity: at the default 64-model bound the
// cache holds 64 keys — whichever 64 — before it evicts anything, and
// then evicts the least recently used one.
func TestCacheExactLRUAtDefaultCapacity(t *testing.T) {
	const capacity = 64
	c := newCache[int](capacity)
	key := func(i int) string { return "model-" + strconv.Itoa(i) }
	for i := 0; i < capacity; i++ {
		c.put(key(i), i)
	}
	if _, _, ev := c.counters(); c.len() != capacity || ev != 0 {
		t.Fatalf("%d keys in a cache of %d: %d cached, %d evicted", capacity, capacity, c.len(), ev)
	}
	fill := func() (int, error) { return -1, nil }
	if v, hit, err := c.get(context.Background(), key(0), fill); v != 0 || !hit || err != nil {
		t.Fatalf("get(oldest) = %d, %v, %v, want a hit", v, hit, err)
	}
	c.put(key(capacity), capacity)
	if _, ok := c.peek(key(1)); ok {
		t.Error("the least recently used key survived an insert past the bound")
	}
	if _, ok := c.peek(key(0)); !ok {
		t.Error("the key touched last was evicted in place of the least recently used one")
	}
	if _, _, ev := c.counters(); c.len() != capacity || ev != 1 {
		t.Errorf("after one insert past the bound: %d cached, %d evicted, want %d and 1", c.len(), ev, capacity)
	}
}

func TestPredictTimeout(t *testing.T) {
	_, server := newTestServer(t, Config{})
	req := testRequest()
	req.Scale = 0.3 // big enough that the cold fit cannot finish in 1ms
	req.TimeoutMillis = 1
	status, raw := postJSON(t, server.URL+"/predict", req)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("HTTP %d, want 504 (%v)", status, raw)
	}
}

func TestModelsAndHealthzEndpoints(t *testing.T) {
	_, server := newTestServer(t, Config{})
	if status, _ := postJSON(t, server.URL+"/predict", testRequest()); status != http.StatusOK {
		t.Fatalf("seed predict failed: HTTP %d", status)
	}

	resp, err := http.Get(server.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var models struct {
		Models []ModelInfo `json:"models"`
		Count  int         `json:"count"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	if models.Count != 1 || len(models.Models) != 1 {
		t.Fatalf("models inventory = %+v, want exactly one entry", models)
	}
	m := models.Models[0]
	if m.Algorithm != "PageRank" || m.R2 <= 0 || m.Iterations <= 0 || len(m.Features) == 0 {
		t.Errorf("degenerate model info: %+v", m)
	}
	if !strings.Contains(m.Key, "data=Wiki") {
		t.Errorf("model key %q does not canonicalize the dataset", m.Key)
	}

	hresp, err := http.Get(server.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var health map[string]any
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" {
		t.Errorf("healthz status = %v", health["status"])
	}
	if health["models"].(float64) != 1 || health["fits"].(float64) != 1 {
		t.Errorf("healthz counters = %v", health)
	}
}

func TestHistoryPersistenceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "models.jsonl")
	ctx := context.Background()

	svc1 := New(Config{})
	cold, err := svc1.Predict(ctx, testRequest())
	if err != nil {
		t.Fatal(err)
	}
	if n, err := svc1.SaveHistory(path); err != nil || n != 1 {
		t.Fatalf("SaveHistory = (%d, %v), want (1, nil)", n, err)
	}
	if entries, err := os.ReadDir(filepath.Dir(path)); err != nil || len(entries) != 1 {
		t.Fatalf("after SaveHistory the directory holds %v (err %v), want only the snapshot", entries, err)
	}

	// A fresh service warms from the file and answers without fitting.
	svc2 := New(Config{})
	if n, skipped, err := svc2.WarmFromHistory(path); err != nil || n != 1 || skipped != 0 {
		t.Fatalf("WarmFromHistory = (%d, %d, %v), want (1, 0, nil)", n, skipped, err)
	}
	warm, err := svc2.Predict(ctx, testRequest())
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Error("request after warm start missed the cache")
	}
	if got := svc2.Stats().Fits; got != 0 {
		t.Errorf("fits after warm start = %d, want 0", got)
	}
	if warm.Iterations != cold.Iterations {
		t.Errorf("iterations changed across persistence: %d != %d", warm.Iterations, cold.Iterations)
	}
	// The refitted regression must reproduce the original prediction
	// (identical training matrix, identical selection).
	if diff := warm.SuperstepSeconds - cold.SuperstepSeconds; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("superstep seconds changed across persistence: %g != %g",
			warm.SuperstepSeconds, cold.SuperstepSeconds)
	}

	// Missing files warm zero models without error.
	if n, _, err := svc2.WarmFromHistory(filepath.Join(t.TempDir(), "absent.jsonl")); err != nil || n != 0 {
		t.Errorf("WarmFromHistory(absent) = (%d, %v), want (0, nil)", n, err)
	}

	// A record with a broken feature schema is skipped, not fatal, and
	// the intact record still warms.
	svc3 := New(Config{})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := strings.Replace(string(raw), `"ActVert"`, `"Bogus"`, 1)
	mixedPath := filepath.Join(t.TempDir(), "mixed.jsonl")
	if err := os.WriteFile(mixedPath, append([]byte(corrupt), raw...), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, skipped, err := svc3.WarmFromHistory(mixedPath); err != nil || n != 1 || skipped != 1 {
		t.Errorf("WarmFromHistory(mixed) = (%d, %d, %v), want (1, 1, nil)", n, skipped, err)
	}
}

// TestCacheHitTenTimesFasterThanCold is the acceptance criterion: a
// cache-hit prediction must be at least 10x faster than the cold path
// (sample runs + regression) for the same request.
func TestCacheHitTenTimesFasterThanCold(t *testing.T) {
	svc := New(Config{})
	ctx := context.Background()
	req := testRequest()

	coldStart := time.Now()
	if _, err := svc.Predict(ctx, req); err != nil {
		t.Fatal(err)
	}
	cold := time.Since(coldStart)

	// Median of several warm calls to be robust against scheduler noise.
	const warmCalls = 5
	warm := make([]time.Duration, warmCalls)
	for i := range warm {
		s := time.Now()
		resp, err := svc.Predict(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.CacheHit {
			t.Fatal("warm call missed the cache")
		}
		warm[i] = time.Since(s)
	}
	best := warm[0]
	for _, d := range warm[1:] {
		if d < best {
			best = d
		}
	}
	if best*10 > cold {
		t.Errorf("cache hit not 10x faster: cold %v, best warm %v (%.1fx)",
			cold, best, float64(cold)/float64(best))
	}
	t.Logf("cold %v, warm %v (%.0fx speedup)", cold, best, float64(cold)/float64(best))
}

// BenchmarkColdPrediction measures the full pipeline (fresh service per
// iteration so nothing is cached).
func BenchmarkColdPrediction(b *testing.B) {
	ctx := context.Background()
	req := PredictRequest{
		Dataset: "Wiki", Scale: 0.02, Algorithm: "PR",
		Epsilon: 0.01, Ratio: 0.15, TrainingRatios: []float64{0.1, 0.2},
	}
	for i := 0; i < b.N; i++ {
		svc := New(Config{})
		if _, err := svc.Predict(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmPrediction measures the cache-hit path.
func BenchmarkWarmPrediction(b *testing.B) {
	ctx := context.Background()
	req := PredictRequest{
		Dataset: "Wiki", Scale: 0.02, Algorithm: "PR",
		Epsilon: 0.01, Ratio: 0.15, TrainingRatios: []float64{0.1, 0.2},
	}
	svc := New(Config{})
	if _, err := svc.Predict(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Predict(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPredictRefusesSingleRatioFits holds a fit to two distinct sampling
// ratios. With the sampling ratio as its only ratio, forward selection
// keeps no feature and the model answers its intercept whatever the
// graph's size (PageRank on Wiki: -77 % at the actual, with
// probability_of_deadline 1.000 there), so such a request is a 400 that
// names training_ratios, before any fit. A training ratio beside a
// different sampling ratio still fits.
func TestPredictRefusesSingleRatioFits(t *testing.T) {
	svc, server := newTestServer(t, Config{})
	withRatios := func(ratio float64, training ...float64) PredictRequest {
		r := testRequest()
		r.Ratio, r.TrainingRatios = ratio, training
		return r
	}
	for _, req := range []PredictRequest{
		withRatios(0, 0.1),
		withRatios(0, 0.1, 0.1),
		withRatios(0.1, 0.1),
		withRatios(0.15, 0.15, 0.15),
	} {
		if err := req.Validate(); err == nil {
			t.Errorf("Validate accepts ratio %v with training_ratios %v", req.Ratio, req.TrainingRatios)
		}
		status, raw := postJSON(t, server.URL+"/predict", req)
		if status != http.StatusBadRequest {
			t.Errorf("ratio %v, training_ratios %v: HTTP %d, want 400", req.Ratio, req.TrainingRatios, status)
			continue
		}
		if msg := string(raw["error"]); !strings.Contains(msg, "training_ratios") {
			t.Errorf("ratio %v, training_ratios %v: error %s does not name training_ratios", req.Ratio, req.TrainingRatios, msg)
		}
	}
	if got := svc.Stats().Fits; got != 0 {
		t.Fatalf("refused requests ran %d fits", got)
	}
	status, raw := postJSON(t, server.URL+"/predict", withRatios(0.2, 0.1))
	if status != http.StatusOK {
		t.Fatalf("ratio 0.2, training_ratios [0.1]: HTTP %d, want 200 (%s)", status, raw["error"])
	}
}
