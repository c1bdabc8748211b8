package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"predict/internal/faultinject"
	"predict/internal/graph"
)

// postRaw posts v and returns the full response (status, headers, body)
// without decoding, for tests that assert on shed headers.
func postRaw(t *testing.T, url string, v any) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, out
}

// TestWriteServiceErrorStatusMapping pins the error-to-HTTP contract:
// every service error code maps to its status, shed errors carry their
// Retry-After hint, deadline expiry maps to 504, and anything untyped
// is a 500. Wrapped errors unwrap.
func TestWriteServiceErrorStatusMapping(t *testing.T) {
	cases := []struct {
		name       string
		err        error
		wantStatus int
		wantRetry  string // Retry-After header; empty = must be absent
		wantMsg    string
	}{
		{
			name:       "bad request",
			err:        &Error{Status: http.StatusBadRequest, Msg: "service: missing dataset"},
			wantStatus: http.StatusBadRequest,
			wantMsg:    "service: missing dataset",
		},
		{
			name:       "not found",
			err:        &Error{Status: http.StatusNotFound, Msg: "service: no such dataset"},
			wantStatus: http.StatusNotFound,
			wantMsg:    "service: no such dataset",
		},
		{
			name:       "shed 429 carries Retry-After",
			err:        &Error{Status: http.StatusTooManyRequests, RetryAfterSeconds: 2, Msg: "service: too many in flight"},
			wantStatus: http.StatusTooManyRequests,
			wantRetry:  "2",
			wantMsg:    "service: too many in flight",
		},
		{
			name:       "shed 503 carries Retry-After",
			err:        &Error{Status: http.StatusServiceUnavailable, RetryAfterSeconds: 1, Msg: "service: fit queue full"},
			wantStatus: http.StatusServiceUnavailable,
			wantRetry:  "1",
			wantMsg:    "service: fit queue full",
		},
		{
			name:       "timeout 504",
			err:        &Error{Status: http.StatusGatewayTimeout, Msg: "service: request timed out"},
			wantStatus: http.StatusGatewayTimeout,
			wantMsg:    "service: request timed out",
		},
		{
			name:       "wrapped service error unwraps",
			err:        fmt.Errorf("outer: %w", &Error{Status: http.StatusNotFound, Msg: "inner"}),
			wantStatus: http.StatusNotFound,
			wantMsg:    "inner",
		},
		{
			name:       "context.DeadlineExceeded maps to 504",
			err:        context.DeadlineExceeded,
			wantStatus: http.StatusGatewayTimeout,
			wantMsg:    context.DeadlineExceeded.Error(),
		},
		{
			name:       "wrapped deadline maps to 504",
			err:        fmt.Errorf("fit: %w", context.DeadlineExceeded),
			wantStatus: http.StatusGatewayTimeout,
			wantMsg:    "fit: " + context.DeadlineExceeded.Error(),
		},
		{
			name:       "untyped error is a 500",
			err:        errors.New("boom"),
			wantStatus: http.StatusInternalServerError,
			wantMsg:    "boom",
		},
		{
			// The /observe contract: an unknown model key is a typed 404,
			// never a silently created orphan history record.
			name:       "observe unknown model key is a 404",
			err:        observeUnknownKeyError(t),
			wantStatus: http.StatusNotFound,
			wantMsg:    `service: unknown model key "no-such-key": observations attach to fitted models (predict first)`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			writeServiceError(rec, tc.err)
			if rec.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d", rec.Code, tc.wantStatus)
			}
			if got := rec.Header().Get("Retry-After"); got != tc.wantRetry {
				t.Fatalf("Retry-After = %q, want %q", got, tc.wantRetry)
			}
			var body map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatalf("body %q is not JSON: %v", rec.Body.Bytes(), err)
			}
			if body["error"] != tc.wantMsg {
				t.Fatalf("error = %q, want %q", body["error"], tc.wantMsg)
			}
		})
	}
}

// TestAdmissionStressColdAndWarm hammers one service from many
// goroutines — a herd on a single cold key, a saturating stream of
// distinct cold keys, and steady warm traffic — and asserts the
// admission invariants: the herd shares exactly one fit, warm hits are
// never shed, every shed is a 503 carrying Retry-After, and warm
// latency stays bounded while the fit queue is saturated.
func TestAdmissionStressColdAndWarm(t *testing.T) {
	svc, server := newTestServer(t, Config{
		FitParallelism: 1,
		FitQueueDepth:  1,
	})

	// Warm two keys and measure uncontended warm latency.
	warmKeys := []PredictRequest{testRequest(), testRequest()}
	warmKeys[1].Algorithm = "CC"
	for _, r := range warmKeys {
		if status, raw := postJSON(t, server.URL+"/predict", r); status != http.StatusOK {
			t.Fatalf("warming: HTTP %d (%v)", status, raw)
		}
	}
	warmupFits := svc.Stats().Fits

	var uncontended []time.Duration
	for i := 0; i < 20; i++ {
		start := time.Now()
		if status, _ := postJSON(t, server.URL+"/predict", warmKeys[i%2]); status != http.StatusOK {
			t.Fatalf("uncontended warm: HTTP %d", status)
		}
		uncontended = append(uncontended, time.Since(start))
	}

	// Herd: one cold key, many concurrent requests, exactly one fit.
	herd := testRequest()
	herd.SampleSeed = 77
	const herdSize = 8
	var wg sync.WaitGroup
	errs := make(chan error, herdSize)
	for i := 0; i < herdSize; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, raw := postRaw(t, server.URL+"/predict", herd)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("herd request: HTTP %d (%v)", resp.StatusCode, raw)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if fits := svc.Stats().Fits; fits != warmupFits+1 {
		t.Fatalf("herd on one cold key ran %d fits, want exactly 1", fits-warmupFits)
	}

	// Saturation: distinct cold keys flood the depth-1 fit queue while
	// warm traffic continues. Warm requests must all succeed; cold
	// requests either succeed or shed with 503 + Retry-After.
	const (
		coldClients   = 4
		coldPerClient = 6
		warmClients   = 2
		warmPerClient = 25
	)
	var mu sync.Mutex
	var warmLatencies []time.Duration
	shedSeen := 0
	for round := 0; shedSeen == 0 && round < 5; round++ {
		var stress sync.WaitGroup
		stressErrs := make(chan error, coldClients*coldPerClient+warmClients*warmPerClient)
		for c := 0; c < coldClients; c++ {
			stress.Add(1)
			go func(c int) {
				defer stress.Done()
				for i := 0; i < coldPerClient; i++ {
					r := testRequest()
					r.SampleSeed = uint64(1000 + round*1000 + c*100 + i)
					resp, _ := postRaw(t, server.URL+"/predict", r)
					switch resp.StatusCode {
					case http.StatusOK:
					case http.StatusServiceUnavailable:
						if resp.Header.Get("Retry-After") == "" {
							stressErrs <- fmt.Errorf("shed 503 without Retry-After")
							return
						}
						mu.Lock()
						shedSeen++
						mu.Unlock()
					default:
						stressErrs <- fmt.Errorf("cold request: HTTP %d", resp.StatusCode)
						return
					}
				}
			}(c)
		}
		for c := 0; c < warmClients; c++ {
			stress.Add(1)
			go func(c int) {
				defer stress.Done()
				for i := 0; i < warmPerClient; i++ {
					start := time.Now()
					resp, _ := postRaw(t, server.URL+"/predict", warmKeys[(c+i)%2])
					if resp.StatusCode != http.StatusOK {
						stressErrs <- fmt.Errorf("warm request shed or failed: HTTP %d", resp.StatusCode)
						return
					}
					mu.Lock()
					warmLatencies = append(warmLatencies, time.Since(start))
					mu.Unlock()
				}
			}(c)
		}
		stress.Wait()
		close(stressErrs)
		for err := range stressErrs {
			t.Fatal(err)
		}
	}
	if shedSeen == 0 {
		t.Log("no sheds observed (fits drained faster than arrivals); shed path covered by TestPredictShedsWhenFitQueueFull")
	}
	if got := svc.Stats().Shed; got != int64(shedSeen) {
		t.Fatalf("/stats shed = %d, client observed %d", got, shedSeen)
	}

	// Warm latency under saturation stays bounded. The bound is generous
	// (race detector, single-CPU CI runners): 10x the uncontended p99
	// with a 2s floor — this is a starvation check, not a perf gate.
	sort.Slice(uncontended, func(i, j int) bool { return uncontended[i] < uncontended[j] })
	sort.Slice(warmLatencies, func(i, j int) bool { return warmLatencies[i] < warmLatencies[j] })
	up99 := uncontended[len(uncontended)*99/100]
	p99 := warmLatencies[len(warmLatencies)*99/100]
	bound := 10 * up99
	if bound < 2*time.Second {
		bound = 2 * time.Second
	}
	if p99 > bound {
		t.Fatalf("warm p99 %v under saturated fit queue exceeds bound %v (uncontended p99 %v)", p99, bound, up99)
	}
}

// TestPredictShedsWhenFitQueueFull drives the fit-queue 503 path
// deterministically: with the single admission slot held, a cache miss
// must shed immediately with 503 + Retry-After, and a warm hit must still
// be served.
func TestPredictShedsWhenFitQueueFull(t *testing.T) {
	svc, server := newTestServer(t, Config{FitQueueDepth: 1})

	warm := testRequest()
	if status, raw := postJSON(t, server.URL+"/predict", warm); status != http.StatusOK {
		t.Fatalf("warming: HTTP %d (%v)", status, raw)
	}

	if !svc.fitGate.tryAcquire() {
		t.Fatal("could not hold the only fit-queue slot")
	}
	defer svc.fitGate.release()

	cold := testRequest()
	cold.SampleSeed = 99
	resp, raw := postRaw(t, server.URL+"/predict", cold)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("cold miss with full fit queue: HTTP %d (%v), want 503", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want %q", got, "1")
	}

	if status, _ := postJSON(t, server.URL+"/predict", warm); status != http.StatusOK {
		t.Fatalf("warm hit was shed (HTTP %d) while the fit queue was full", status)
	}
	if svc.Stats().Shed == 0 {
		t.Fatal("shed counter did not record the 503")
	}
}

// TestPredictShedsWhenInFlightFull drives the request-gate 429 path:
// with every in-flight slot held, the handler sheds before reading the
// body, with 429 + Retry-After.
func TestPredictShedsWhenInFlightFull(t *testing.T) {
	svc, server := newTestServer(t, Config{MaxInFlight: 1})

	if !svc.reqGate.tryAcquire() {
		t.Fatal("could not hold the only in-flight slot")
	}
	defer svc.reqGate.release()

	resp, raw := postRaw(t, server.URL+"/predict", testRequest())
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("request with in-flight gate full: HTTP %d (%v), want 429", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want %q", got, "1")
	}
	if svc.Stats().Shed != 1 {
		t.Fatalf("shed counter = %d, want 1", svc.Stats().Shed)
	}
}

// TestCeilSeconds: a Retry-After hint rounds up to whole seconds, never
// down (a client must not be invited back early) and never to zero (which
// would tell it to hammer). The open breaker's remaining cooldown is the
// wait that goes through it.
func TestCeilSeconds(t *testing.T) {
	for _, tc := range []struct {
		wait time.Duration
		want int
	}{
		{1500 * time.Millisecond, 2},
		{2500 * time.Millisecond, 3},
		{2 * time.Second, 2},
		{0, 1},
		{-time.Second, 1},
	} {
		if got := ceilSeconds(tc.wait); got != tc.want {
			t.Errorf("ceilSeconds(%v) = %d, want %d", tc.wait, got, tc.want)
		}
	}
}

// TestClientCancelMidFitDoesNotPoison cancels a request mid-fit (tiny
// timeout on a cold key) and asserts the single-flight machinery is not
// poisoned: the request gets a 504, the detached fit completes and warms
// the cache, and the next request for the same key succeeds without a
// second fit.
func TestClientCancelMidFitDoesNotPoison(t *testing.T) {
	svc, server := newTestServer(t, Config{})

	cold := testRequest()
	cold.SampleSeed = 55
	cold.TimeoutMillis = 1
	status, raw := postJSON(t, server.URL+"/predict", cold)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("cold predict with 1ms budget: HTTP %d (%v), want 504", status, raw)
	}

	// The abandoned fit keeps running detached; the retry must succeed —
	// joining the in-flight fill or hitting the warmed cache — without
	// starting a second fit for the key.
	cold.TimeoutMillis = 0
	status, raw = postJSON(t, server.URL+"/predict", cold)
	if status != http.StatusOK {
		t.Fatalf("retry after canceled fit: HTTP %d (%v)", status, raw)
	}
	if pr := decodePrediction(t, raw); pr.SuperstepSeconds <= 0 {
		t.Fatalf("retry returned an empty prediction: %+v", pr)
	}
	if fits := svc.Stats().Fits; fits != 1 {
		t.Fatalf("canceled fit poisoned single-flight: %d fits for one key, want 1", fits)
	}
}

// TestConcurrentColdPredictsShareOneFit pins the one single-flight on the
// request path, the model cache's: N identical cold requests in flight
// together run one fit, every one is answered 200 with the same bytes
// (elapsed_ms apart), and coalesced counts the N-1 that waited on a fill
// they did not start.
func TestConcurrentColdPredictsShareOneFit(t *testing.T) {
	svc, server := newTestServer(t, Config{FitParallelism: 1})
	req := testRequest()
	// The graph is cached up front, so the only fill to share is the fit.
	if _, err := svc.graphFor(context.Background(), req.withDefaults(), "", ""); err != nil {
		t.Fatal(err)
	}

	// The fit's sample pipelines queue behind the one pool slot, held until
	// every other request has joined the fill: the counts below are exact,
	// not likely.
	held, release := make(chan struct{}), make(chan struct{})
	releasePool := sync.OnceFunc(func() { close(release) })
	defer releasePool() // also on a failed wait below, so the requests can finish
	poolDone := make(chan error, 1)
	go func() {
		poolDone <- svc.fitPool.ForEach(context.Background(), 1, func(context.Context, int) error {
			close(held)
			<-release
			return nil
		})
	}()
	<-held

	const n = 6
	payload := jsonEncode(t, req)
	statuses := make([]int, n)
	bodies := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(server.URL+"/predict", "application/json", bytes.NewReader(payload))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
			bodies[i], errs[i] = io.ReadAll(resp.Body)
		}(i)
	}
	waitFor(t, 30*time.Second, "every other request to join the fit", func() bool {
		return svc.Stats().Coalesced >= n-1
	})
	releasePool()
	wg.Wait()
	if err := <-poolDone; err != nil {
		t.Fatal(err)
	}

	for i := range bodies {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: HTTP %d: %s", i, statuses[i], bodies[i])
		}
		bodies[i] = elapsedRE.ReplaceAll(bodies[i], []byte(`"elapsed_ms":0`))
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d answered differently from request 0:\n  %s\n  %s", i, bodies[i], bodies[0])
		}
	}
	// Every one of them waited out the fit, so none reports a cache hit.
	if pr := new(PredictResponse); json.Unmarshal(bodies[0], pr) != nil || pr.CacheHit || pr.SuperstepSeconds <= 0 {
		t.Errorf("cold herd answer: %s", bodies[0])
	}
	st := svc.Stats()
	if st.Fits != 1 || st.Misses != 1 {
		t.Errorf("%d identical cold requests ran %d fits over %d model-cache misses, want 1 and 1", n, st.Fits, st.Misses)
	}
	if st.Coalesced != n-1 {
		t.Errorf("coalesced = %d, want %d (every request but the one that started the fit)", st.Coalesced, n-1)
	}
}

// TestClientCancelMidLoadLeavesGraphCached is TestClientCancelMidFit one
// cache earlier: a request whose context expires while its dataset is
// still loading gets a 504 and goes no further — the detached load
// finishes and caches the graph, no fit was started on the abandoned
// request's behalf, and the retry finds the graph and fits once.
func TestClientCancelMidLoadLeavesGraphCached(t *testing.T) {
	dir := t.TempDir()
	if err := graph.WriteSnapshotFile(filepath.Join(dir, "social.snap"), testWikiGraph(t)); err != nil {
		t.Fatal(err)
	}
	restore := faultinject.Enable(faultinject.NewInjector(chaosSeed(t), faultinject.Rule{
		Point: faultinject.PointGraphLoadFile,
		From:  1, Count: 1,
		Delay: 250 * time.Millisecond, // the slow disk; the request below gives up long before
	}))
	defer restore()
	svc, server := newTestServer(t, Config{DatasetDir: dir})

	req := PredictRequest{Dataset: "social", Algorithm: "CC", TrainingRatios: []float64{0.1, 0.2}, TimeoutMillis: 20}
	status, raw := postJSON(t, server.URL+"/predict", req)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("predict with a 20ms budget on a slow load: HTTP %d (%v), want 504", status, raw)
	}

	waitFor(t, 30*time.Second, "the abandoned request's dataset load to reach the graph cache", func() bool {
		info, ok := svc.describeDataset("social")
		return ok && info.Loaded
	})
	if st := svc.Stats(); st.Fits != 0 || st.Misses != 0 {
		t.Fatalf("a request abandoned during its load went on to the model cache: %d fits, %d misses", st.Fits, st.Misses)
	}

	req.TimeoutMillis = 0
	status, raw = postJSON(t, server.URL+"/predict", req)
	if status != http.StatusOK {
		t.Fatalf("retry after the canceled load: HTTP %d (%v)", status, raw)
	}
	if pr := decodePrediction(t, raw); pr.CacheHit || pr.SuperstepSeconds <= 0 {
		t.Fatalf("retry should be the one cold fit: %+v", pr)
	}
	if st := svc.Stats(); st.Fits != 1 || st.Graphs != 1 {
		t.Fatalf("after the retry: %d fits on %d cached graphs, want 1 and 1", st.Fits, st.Graphs)
	}
}

// TestStatsUnderConcurrentLoad scrapes /stats continuously while mixed
// cold/warm traffic runs, asserting every snapshot is internally
// consistent (ratios in range, queue depth within its cap) and the
// counters are monotonic across snapshots; the final totals must agree
// with the traffic actually sent.
func TestStatsUnderConcurrentLoad(t *testing.T) {
	// A history path keeps the checkpointing counters moving under the
	// same load (every fit and every /observe appends a record), so their
	// monotonicity is asserted under real concurrency, not at rest.
	svc, server := newTestServer(t, Config{
		FitQueueDepth: 2,
		HistoryPath:   filepath.Join(t.TempDir(), "models.jsonl"),
	})

	warm := testRequest()
	status, raw := postJSON(t, server.URL+"/predict", warm)
	if status != http.StatusOK {
		t.Fatalf("warming: HTTP %d (%v)", status, raw)
	}
	warmed := decodePrediction(t, raw)

	stop := make(chan struct{})
	scrapeErr := make(chan error, 1)
	go func() {
		defer close(scrapeErr)
		var prev Stats
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(server.URL + "/stats")
			if err != nil {
				scrapeErr <- err
				return
			}
			var payload struct {
				Stats Stats `json:"stats"`
			}
			err = json.NewDecoder(resp.Body).Decode(&payload)
			resp.Body.Close()
			if err != nil {
				scrapeErr <- fmt.Errorf("decoding /stats: %w", err)
				return
			}
			st := payload.Stats
			if st.HitRatio < 0 || st.HitRatio > 1 {
				scrapeErr <- fmt.Errorf("hit ratio %v out of [0, 1]", st.HitRatio)
				return
			}
			if st.FitQueueDepth < 0 || st.FitQueueDepth > int64(st.FitQueueCap) {
				scrapeErr <- fmt.Errorf("fit queue depth %d out of [0, %d]", st.FitQueueDepth, st.FitQueueCap)
				return
			}
			if st.Hits < prev.Hits || st.Misses < prev.Misses || st.Fits < prev.Fits ||
				st.Shed < prev.Shed || st.Requests < prev.Requests || st.Coalesced < prev.Coalesced {
				scrapeErr <- fmt.Errorf("counters went backwards: %+v then %+v", prev, st)
				return
			}
			if st.UptimeSeconds < prev.UptimeSeconds {
				scrapeErr <- fmt.Errorf("uptime went backwards: %v then %v", prev.UptimeSeconds, st.UptimeSeconds)
				return
			}
			if st.CheckpointsWritten < prev.CheckpointsWritten || st.Compactions < prev.Compactions ||
				st.CheckpointFailures < prev.CheckpointFailures {
				scrapeErr <- fmt.Errorf("checkpoint counters went backwards: %+v then %+v", prev, st)
				return
			}
			if st.Observations < prev.Observations || st.BlendExtrapolation < prev.BlendExtrapolation ||
				st.BlendInterpolation < prev.BlendInterpolation {
				scrapeErr <- fmt.Errorf("feedback counters went backwards: %+v then %+v", prev, st)
				return
			}
			if st.Draining {
				scrapeErr <- fmt.Errorf("service reported draining with no drain begun")
				return
			}
			prev = st
		}
	}()

	const (
		clients   = 4
		perClient = 10
	)
	var wg sync.WaitGroup
	reqErrs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				r := warm
				if i%3 == 0 { // a third of the traffic is cold
					r.SampleSeed = uint64(10000 + c*100 + i)
				}
				if i%5 == 4 { // feedback keeps the observation counters moving
					resp, _ := postRaw(t, server.URL+"/observe", ObserveRequest{
						ModelKey: warmed.ModelKey, ActualSeconds: warmed.SuperstepSeconds,
					})
					if resp.StatusCode != http.StatusOK {
						reqErrs <- fmt.Errorf("client %d observe %d: HTTP %d", c, i, resp.StatusCode)
						return
					}
				}
				resp, _ := postRaw(t, server.URL+"/predict", r)
				switch resp.StatusCode {
				case http.StatusOK, http.StatusServiceUnavailable:
				default:
					reqErrs <- fmt.Errorf("client %d request %d: HTTP %d", c, i, resp.StatusCode)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(reqErrs)
	for err := range reqErrs {
		t.Fatal(err)
	}
	close(stop)
	if err := <-scrapeErr; err != nil {
		t.Fatal(err)
	}

	st := svc.Stats()
	if want := int64(clients*perClient + 1); st.Requests != want {
		t.Fatalf("requests = %d, want %d", st.Requests, want)
	}
	if st.FitQueueCap != 2 {
		t.Fatalf("fit queue cap = %d, want 2", st.FitQueueCap)
	}
	if st.Observations == 0 || st.BlendExtrapolation == 0 {
		t.Fatalf("observations = %d, extrapolation answers = %d: warm traffic with feedback moved neither",
			st.Observations, st.BlendExtrapolation)
	}
	if st.FitQueueDepth != 0 {
		t.Fatalf("fit queue depth = %d after traffic drained, want 0", st.FitQueueDepth)
	}
	// Every completed fit checkpointed (the shed ones never fit at all),
	// and the warming fit plus eight observations grew the log past four
	// times its one-record baseline: at least one compaction.
	if st.CheckpointsWritten != st.Fits {
		t.Fatalf("checkpoints_written = %d with %d fits completed", st.CheckpointsWritten, st.Fits)
	}
	if st.CheckpointFailures != 0 {
		t.Fatalf("checkpoint_failures = %d on a writable volume", st.CheckpointFailures)
	}
	if st.Compactions < 1 {
		t.Fatalf("compactions = %d after %d checkpoints and %d observations", st.Compactions, st.Fits, st.Observations)
	}
}
