package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"predict/internal/core"
	"predict/internal/graph"
	"predict/internal/history"
)

// warmPredictAllocs is the pinned allocation count of a warm
// Service.Predict (measured: 11). Every answer is computed from the cached
// model: the prediction and its per-iteration prices, plus the request
// path around it — the model key string, the graph-cache key, the fill
// closures the two cache lookups are handed (each with the request it
// captures) and the returned response. None of it is sized by the graph
// or the training rows; the full-scale vectors are scaled into one
// reused buffer.
const warmPredictAllocs = 11

// TestWarmPredictAllocs pins the allocation cost of a warm
// Service.Predict under predictd's default configuration — the path every
// repeated what-if query takes in production.
func TestWarmPredictAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	svc := New(Config{})
	ctx := context.Background()
	req := testRequest()
	req.Workers = 16
	if _, err := svc.Predict(ctx, req); err != nil { // cold: fits
		t.Fatal(err)
	}
	const runs = 200
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := svc.Predict(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	if fits := svc.Stats().Fits; fits != 1 {
		t.Fatalf("%d fits: the measured predictions were not all warm", fits)
	}
	t.Logf("warm Service.Predict: %v allocations", allocs)
	if allocs > warmPredictAllocs {
		t.Errorf("warm Service.Predict allocates %v times, pinned at %d", allocs, warmPredictAllocs)
	}
}

// TestInterpolatedPredictAllocsFlat pins that an interpolated answer
// costs the same allocations at any window size: the refit takes the
// window as sufficient statistics, not as one training row per observed
// iteration. Each measured prediction is the first after an /observe, so
// it is computed on the window just extended. A single call is measured
// at a time, so each size keeps the least of five measurements: whatever
// else the process allocates meanwhile only adds.
func TestInterpolatedPredictAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	svc := New(Config{})
	ctx := context.Background()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const tries = 5
	// observeAndPredict observes one more runtime on req's key, which
	// then holds n, and returns the allocations of the next prediction.
	observeAndPredict := func(req PredictRequest, key string, secs float64, n int) uint64 {
		if _, err := svc.Observe(ctx, ObserveRequest{ModelKey: key, ActualSeconds: secs}); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp, err := svc.Predict(ctx, req)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if resp.BlendRegime != core.RegimeInterpolation || resp.Observations != n {
			t.Fatalf("%s regime on %d observations, want interpolation on %d", resp.BlendRegime, resp.Observations, n)
		}
		return after.Mallocs - before.Mallocs
	}
	// Five keys (PageRank at five tolerances, sharing one graph and its
	// samples) each measured at the threshold, and one of them again
	// after its window filled and rolled over.
	low, full := uint64(math.MaxUint64), uint64(math.MaxUint64)
	var req PredictRequest
	var key string
	var secs float64
	for k := 0; k < tries; k++ {
		req = testRequest()
		req.Epsilon = 0.01 * float64(k+1)
		first, err := svc.Predict(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		key, secs = first.ModelKey, first.SuperstepSeconds*1.2
		for n := 1; n < core.DefaultObservationThreshold; n++ {
			if _, err := svc.Observe(ctx, ObserveRequest{ModelKey: key, ActualSeconds: secs * (1 + 0.01*float64(n))}); err != nil {
				t.Fatal(err)
			}
		}
		low = min(low, observeAndPredict(req, key, secs, core.DefaultObservationThreshold))
	}
	for n := core.DefaultObservationThreshold + 1; n < history.MaxObservationsPerKey+tries; n++ {
		m := observeAndPredict(req, key, secs*(1+0.01*float64(n%7)), min(n, history.MaxObservationsPerKey))
		if n >= history.MaxObservationsPerKey {
			full = min(full, m)
		}
	}
	t.Logf("interpolated Service.Predict: %d allocations at %d observations, %d at %d",
		low, core.DefaultObservationThreshold, full, history.MaxObservationsPerKey)
	if full != low {
		t.Errorf("interpolated Service.Predict allocates %d times at %d observations but %d at %d: the cost grows with the window",
			low, core.DefaultObservationThreshold, full, history.MaxObservationsPerKey)
	}
}

// handlerWarmAllocs is the pinned allocation count of a warm POST /predict
// through Service.Handler() (measured: 30; benchmark/ measures the same
// call over its mix of warm keys as service.handler_warm_allocs and reads
// 31.5): the warmPredictAllocs of Service.Predict
// plus decoding the request body (json.Decoder, its parse stack, the
// request's strings and training ratios), the request's deadline context
// with its timer, and the two response header values. The pin sits within
// 10 % of the measurement.
const handlerWarmAllocs = 33

// discardResponse is a reusable http.ResponseWriter that keeps the status
// and nothing else, so the handler's own allocations are what is counted.
type discardResponse struct {
	header http.Header
	status int
}

func (d *discardResponse) Header() http.Header         { return d.header }
func (d *discardResponse) WriteHeader(status int)      { d.status = status }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }

// TestHandlerWarmAllocs pins the allocation cost of a warm /predict from
// the handler down — admission gate, pooled codec, extrapolation, encode —
// under predictd's default configuration, with the request, its body and
// the response writer reused so none of the test's own machinery counts.
func TestHandlerWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	svc := New(Config{})
	handler := svc.Handler()
	req := testRequest()
	req.Workers = 16
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.NewReader(nil)
	httpReq := httptest.NewRequest(http.MethodPost, "/predict", body)
	w := &discardResponse{header: http.Header{}}
	serve := func() {
		body.Reset(payload)
		clear(w.header)
		w.status = 0
		handler.ServeHTTP(w, httpReq)
		if w.status != http.StatusOK {
			t.Fatalf("POST /predict: HTTP %d", w.status)
		}
	}
	serve() // cold: fits
	const runs = 200
	allocs := testing.AllocsPerRun(runs, serve)
	if fits := svc.Stats().Fits; fits != 1 {
		t.Fatalf("%d fits: the measured requests were not all warm", fits)
	}
	t.Logf("warm POST /predict: %v allocations", allocs)
	if allocs > handlerWarmAllocs {
		t.Errorf("warm POST /predict allocates %v times through the handler, pinned at %d", allocs, handlerWarmAllocs)
	}
}

// TestWarmPredictStats pins the /stats bookkeeping of warm answers: the
// blend regime tallies count one per answered prediction; an observation
// is in the very next prediction; and a warm prediction is a model-cache
// hit that refreshes the model's LRU position.
func TestWarmPredictStats(t *testing.T) {
	svc := New(Config{MaxModels: 2})
	ctx := context.Background()
	a, b, c := testRequest(), testRequest(), testRequest()
	b.SampleSeed, c.SampleSeed = 2, 3

	first, err := svc.Predict(ctx, a) // cold: fits
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := svc.Predict(ctx, a); err != nil {
			t.Fatal(err)
		}
	}
	a16 := a
	a16.Workers = 16
	if _, err := svc.Predict(ctx, a16); err != nil { // warm, at another worker count
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.BlendExtrapolation != 5 || st.BlendInterpolation != 0 {
		t.Errorf("blend tallies = %d/%d, want one per answered prediction (5/0)",
			st.BlendExtrapolation, st.BlendInterpolation)
	}
	if st.Hits != 4 || st.Misses != 1 || st.HitRatio != 0.8 {
		t.Errorf("model cache hits/misses/ratio = %d/%d/%v, want 4/1/0.8", st.Hits, st.Misses, st.HitRatio)
	}

	if _, err := svc.Observe(ctx, ObserveRequest{ModelKey: first.ModelKey, ActualSeconds: first.SuperstepSeconds}); err != nil {
		t.Fatal(err)
	}
	after, err := svc.Predict(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	if after.Observations != 1 {
		t.Errorf("prediction after an observation reports %d observations, want 1", after.Observations)
	}

	// LRU touch: with a and b cached, a warm prediction on a makes b the
	// eviction victim when c arrives.
	if _, err := svc.Predict(ctx, b); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Predict(ctx, a); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Predict(ctx, c); err != nil {
		t.Fatal(err)
	}
	if _, ok := svc.models.peek(first.ModelKey); !ok {
		t.Error("a warm prediction did not refresh the model's LRU position: the model was evicted")
	}
	if _, ok := svc.models.peek(svc.modelKey(b.withDefaults(), "")); ok {
		t.Error("the least recently used model survived the eviction")
	}
}

// modelOracle is the trivial in-memory model the sequence test holds the
// service to: which keys the model LRU caches (most recently
// used first), when each was inserted (a restart re-inserts in that
// order), and every key's observation window.
type modelOracle struct {
	capacity int
	lru      []int       // cached keys, most recently used first
	added    map[int]int // cached key -> insertion sequence number
	seq      int
	windows  map[int][]float64
}

// touch records a prediction on key k and reports whether it was cached.
func (o *modelOracle) touch(k int) (cached bool) {
	for i, c := range o.lru {
		if c == k {
			copy(o.lru[1:i+1], o.lru[:i])
			o.lru[0] = k
			return true
		}
	}
	o.seq++
	o.added[k] = o.seq
	o.lru = append([]int{k}, o.lru...)
	if len(o.lru) > o.capacity {
		delete(o.added, o.lru[o.capacity])
		o.lru = o.lru[:o.capacity]
	}
	return false
}

func (o *modelOracle) cached(k int) bool {
	_, ok := o.added[k]
	return ok
}

func (o *modelOracle) observe(k int, seconds float64) {
	w := append(o.windows[k], seconds)
	if len(w) > history.MaxObservationsPerKey {
		w = w[len(w)-history.MaxObservationsPerKey:]
	}
	o.windows[k] = w
}

// restart reorders the LRU the way SaveHistory + WarmFromHistory rebuild
// it: oldest insertion first, so the newest insertion ends up in front.
func (o *modelOracle) restart() {
	for i := 1; i < len(o.lru); i++ {
		for j := i; j > 0 && o.added[o.lru[j]] > o.added[o.lru[j-1]]; j-- {
			o.lru[j], o.lru[j-1] = o.lru[j-1], o.lru[j]
		}
	}
}

// TestPredictSequencesMatchBlend is the model-based test of the warm
// path: seeded random sequences of predict, observe, LRU eviction with
// refit, and SaveHistory + WarmFromHistory restarts over 3 keys x 4 worker
// counts. Every response must equal — apart from elapsed_ms — the answer
// composed directly from Fitted.ExtrapolateBlended on the key's current
// observation window, through the threshold crossing at 5 and the window
// rolling over at 64. An answer computed one observation late, or a
// window surviving an eviction or a restart it should not, shows up as a
// field mismatch.
func TestPredictSequencesMatchBlend(t *testing.T) {
	seed := chaosSeed(t)
	rng := rand.New(rand.NewPCG(seed, 0x7e3a))
	ctx := context.Background()
	histPath := filepath.Join(t.TempDir(), "history.jsonl")
	cfg := Config{MaxModels: 2, HistoryPath: histPath}

	workerCounts := []int{0, 4, 8, 16}
	reqs := make([]PredictRequest, 3)
	for k := range reqs {
		reqs[k] = testRequest()
		reqs[k].SampleSeed = uint64(k + 1)
	}

	// The reference: each key's model fitted once on a service of its own,
	// and the graph all three share. Fits are seeded, so the refit after an
	// eviction and the record rebuilt at a restart must both price exactly
	// like it.
	refSvc := New(Config{})
	ref := make([]*core.Fitted, len(reqs))
	keys := make([]string, len(reqs))
	var g *graph.Graph
	for k, req := range reqs {
		resp, err := refSvc.Predict(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		keys[k] = resp.ModelKey
		m, ok := refSvc.models.peek(resp.ModelKey)
		if !ok {
			t.Fatalf("reference model %d not cached", k)
		}
		ref[k] = m.fitted
	}
	g, err := refSvc.graphFor(ctx, reqs[0].withDefaults(), "", "")
	if err != nil {
		t.Fatal(err)
	}

	svc := New(cfg)
	oracle := &modelOracle{capacity: cfg.MaxModels, added: map[int]int{}, windows: map[int][]float64{}}
	compose := func(k, workers int, cached bool) *PredictResponse {
		pred, err := ref[k].ExtrapolateBlended(g, workers, oracle.windows[k], core.DefaultObservationThreshold)
		if err != nil {
			t.Fatal(err)
		}
		want := &PredictResponse{
			Algorithm:           pred.Algorithm,
			Dataset:             reqs[k].Dataset,
			Iterations:          pred.Iterations,
			SuperstepSeconds:    pred.SuperstepSeconds,
			PerIterationSeconds: pred.PerIterationSeconds,
			RemoteMessageBytes:  pred.PredictedRemoteMessageBytes,
			ModelR2:             pred.Model.R2(),
			ModelKey:            keys[k],
			CacheHit:            cached,
			Workers:             workers,
			SampleRunSeconds:    pred.SampleRunSeconds,
			P50Seconds:          pred.Runtime.P50Seconds,
			P95Seconds:          pred.Runtime.P95Seconds,
			StdDevSeconds:       pred.Runtime.StdDevSeconds,
			BlendRegime:         pred.Runtime.Regime,
			Observations:        len(oracle.windows[k]),
		}
		if workers == 0 {
			want.Workers = ref[k].SampleWorkers
		}
		for _, f := range pred.Model.SelectedFeatures() {
			want.ModelFeatures = append(want.ModelFeatures, string(f))
		}
		return want
	}

	// Key 0 takes half the traffic, so its window crosses the threshold
	// early and rolls over well within the sequence.
	pickKey := func() int {
		switch r := rng.IntN(10); {
		case r < 5:
			return 0
		case r < 8:
			return 1
		}
		return 2
	}
	var restarts, observed404 int
	var evictions int64 // summed over the services restarted away
	const steps = 1500
	for step := 0; step < steps; step++ {
		switch r := rng.IntN(100); {
		case r < 55: // predict
			k, workers := pickKey(), workerCounts[rng.IntN(len(workerCounts))]
			req := reqs[k]
			req.Workers = workers
			got, err := svc.Predict(ctx, req)
			if err != nil {
				t.Fatalf("step %d: predict key %d workers %d: %v", step, k, workers, err)
			}
			want := compose(k, workers, oracle.touch(k))
			got.ElapsedMillis = 0
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d (seed %d): key %d workers %d with %d observations:\n got %+v\nwant %+v",
					step, seed, k, workers, len(oracle.windows[k]), *got, *want)
			}
		case r < 98: // observe
			k := pickKey()
			secs := ref[k].SampleRunSeconds * (0.5 + rng.Float64())
			ack, err := svc.Observe(ctx, ObserveRequest{ModelKey: keys[k], ActualSeconds: secs})
			if !oracle.cached(k) {
				var se *Error
				if !errors.As(err, &se) || se.Status != 404 {
					t.Fatalf("step %d: observe on evicted key %d: %v, want a 404", step, k, err)
				}
				observed404++
				continue
			}
			if err != nil {
				t.Fatalf("step %d: observe key %d: %v", step, k, err)
			}
			oracle.observe(k, secs)
			if ack.Observations != len(oracle.windows[k]) {
				t.Fatalf("step %d: observe key %d acknowledged %d observations, want %d",
					step, k, ack.Observations, len(oracle.windows[k]))
			}
		default: // restart
			if _, err := svc.SaveHistory(histPath); err != nil {
				t.Fatalf("step %d: SaveHistory: %v", step, err)
			}
			evictions += svc.Stats().Evictions
			svc = New(cfg)
			if _, skipped, err := svc.WarmFromHistory(histPath); err != nil || skipped != 0 {
				t.Fatalf("step %d: WarmFromHistory: %d skipped, %v", step, skipped, err)
			}
			oracle.restart()
			restarts++
		}
	}

	// The sequence must have reached the states it exists to test.
	evictions += svc.Stats().Evictions
	if evictions == 0 || restarts == 0 || observed404 == 0 {
		t.Errorf("seed %d left a state unvisited: %d evictions, %d restarts, %d observes on evicted keys",
			seed, evictions, restarts, observed404)
	}
	if n := len(oracle.windows[0]); n != history.MaxObservationsPerKey {
		t.Errorf("seed %d: key 0's window holds %d observations, want it rolled over at %d",
			seed, n, history.MaxObservationsPerKey)
	}
}

// TestObserveVisibleToNextPredict is the -race test of the request-path
// ordering: with observers and predictors hammering one key, a predict
// sent after an /observe was acknowledged never reports fewer
// observations than that acknowledgement — it reads the window under the
// lock the acknowledged append released.
func TestObserveVisibleToNextPredict(t *testing.T) {
	svc := New(Config{})
	ctx := context.Background()
	base, err := svc.Predict(ctx, testRequest())
	if err != nil {
		t.Fatal(err)
	}

	// The window's length stops counting at its cap, so the observers stop
	// short of it.
	const observers, perObserver, predictors = 2, 30, 4
	if observers*perObserver >= history.MaxObservationsPerKey {
		t.Fatal("observers would roll the window over")
	}
	var acked atomic.Int64 // the largest acknowledged observation count
	var wg sync.WaitGroup
	done := make(chan struct{})
	for p := 0; p < predictors; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			req := testRequest()
			req.Workers = []int{0, 8}[p%2]
			for {
				select {
				case <-done:
					return
				default:
				}
				floor := acked.Load()
				resp, err := svc.Predict(ctx, req)
				if err != nil {
					t.Errorf("predict: %v", err)
					return
				}
				if int64(resp.Observations) < floor {
					t.Errorf("predict sent after %d observations were acknowledged reports %d", floor, resp.Observations)
					return
				}
			}
		}(p)
	}
	var obsWG sync.WaitGroup
	for o := 0; o < observers; o++ {
		obsWG.Add(1)
		go func() {
			defer obsWG.Done()
			for i := 0; i < perObserver; i++ {
				ack, err := svc.Observe(ctx, ObserveRequest{ModelKey: base.ModelKey, ActualSeconds: base.SuperstepSeconds})
				if err != nil {
					t.Errorf("observe: %v", err)
					return
				}
				for {
					cur := acked.Load()
					if int64(ack.Observations) <= cur || acked.CompareAndSwap(cur, int64(ack.Observations)) {
						break
					}
				}
			}
		}()
	}
	obsWG.Wait()
	close(done)
	wg.Wait()

	final, err := svc.Predict(ctx, testRequest())
	if err != nil {
		t.Fatal(err)
	}
	if final.Observations != observers*perObserver {
		t.Errorf("final prediction reports %d observations, want %d", final.Observations, observers*perObserver)
	}
}

// collected reports whether the finalizer behind done runs within a few
// forced collections.
func collected(done <-chan struct{}) bool {
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-done:
			return true
		case <-time.After(10 * time.Millisecond):
		}
	}
	return false
}

// TestEvictedModelsAndGraphsAreCollectable pins who owns what. A model
// the model LRU evicts is collectable — nothing at service level
// references it. And an answer holds numbers and strings only: a graph
// the graph LRU evicts is collectable while the models fitted on it keep
// answering for other graphs.
func TestEvictedModelsAndGraphsAreCollectable(t *testing.T) {
	svc := New(Config{MaxModels: 1, MaxGraphs: 1})
	ctx := context.Background()
	wiki := testRequest()
	var answers []*PredictResponse // held, as a client would
	for _, workers := range []int{0, 4, 8} {
		wiki.Workers = workers
		resp, err := svc.Predict(ctx, wiki)
		if err != nil {
			t.Fatal(err)
		}
		answers = append(answers, resp)
	}

	key := svc.modelKey(wiki.withDefaults(), "")
	modelGone, graphGone := make(chan struct{}), make(chan struct{})
	func() {
		m, ok := svc.models.peek(key)
		if !ok {
			t.Fatal("wiki model not cached")
		}
		runtime.SetFinalizer(m.fitted, func(any) { close(modelGone) })
		r := wiki.withDefaults()
		g, ok := svc.graphs.peek(fmt.Sprintf("%s|%g|%d", r.Dataset, r.Scale, r.GraphSeed))
		if !ok {
			t.Fatal("wiki graph not cached")
		}
		runtime.SetFinalizer(g, func(any) { close(graphGone) })
	}()

	// A request on another dataset evicts the graph; the wiki model stays.
	lj := testRequest()
	lj.Dataset = "LJ"
	other := New(Config{}) // fits LJ elsewhere, so this service's model LRU is untouched
	if _, err := other.Predict(ctx, lj); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.graphFor(ctx, lj.withDefaults(), "", ""); err != nil {
		t.Fatal(err)
	}
	if !collected(graphGone) {
		t.Error("the evicted graph is still reachable while its model and answers are held")
	}

	// Fitting LJ here evicts the wiki model.
	if _, err := svc.Predict(ctx, lj); err != nil {
		t.Fatal(err)
	}
	if _, ok := svc.models.peek(key); ok {
		t.Fatal("wiki model survived a MaxModels=1 eviction")
	}
	if !collected(modelGone) {
		t.Error("the evicted model is still reachable: something outside the model cache references it")
	}
	runtime.KeepAlive(answers)
}
