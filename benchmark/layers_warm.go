package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"predict/internal/bsp"
	"predict/internal/core"
	"predict/internal/costmodel"
	"predict/internal/features"
	"predict/internal/history"
	"predict/internal/service"
)

// warmModels rebuilds the 12 warm keys' fitted models from the prepared
// history, as predictd's warm start does.
func warmModels(e *env) ([]*core.Fitted, []history.Record, error) {
	records, _, err := history.LoadFile(e.history)
	if err != nil {
		return nil, nil, err
	}
	byKey := map[string]history.Record{}
	for _, r := range records {
		if r.Model != nil {
			byKey[r.Model.Key] = r
		}
	}
	fitted := make([]*core.Fitted, numWarmKeys)
	recs := make([]history.Record, numWarmKeys)
	for k, key := range e.modelKeys {
		r, ok := byKey[key]
		if !ok {
			return nil, nil, fmt.Errorf("prepared history has no model for warm key %d (%s)", k, key)
		}
		if fitted[k], err = core.FittedFromRecord(r); err != nil {
			return nil, nil, err
		}
		recs[k] = r
	}
	return fitted, recs, nil
}

// blendObservations are eight observed runtimes around a prediction, the
// state warm_whatif puts its observed keys in.
func blendObservations(predicted float64) []float64 {
	r := newRNG(1, streamLayers)
	obs := make([]float64, observesPerKey)
	for i := range obs {
		obs[i] = predicted * lognormalFactor(r, 0.15)
	}
	return obs
}

// warmLayers measures the cheap half of the pipeline below the service:
// the critical-share walk, plain and blended extrapolation, and the
// regression refit inside the interpolation regime.
func (l *layerReport) warmLayers(e *env, _ *recorder) error {
	fitted := l.fitted
	var err error
	const reps = 5
	var shareUs []float64
	for _, d := range snapshotDatasets {
		g := e.corpus.graphs[d.name]
		var xs []float64
		for range reps {
			for _, w := range whatIfWorkers {
				t0 := time.Now()
				bsp.CriticalShareOf(g, w)
				xs = append(xs, float64(time.Since(t0))/1e3)
			}
		}
		shareUs = append(shareUs, xs...)
		l.CriticalShareUs[d.name] = datasetCost{Vertices: g.NumVertices(), Edges: g.NumEdges(), P50: median(xs)}
	}
	l.record("bsp.critical_share_us", shareUs)

	var plainUs, extraUs, interUs []float64
	for range reps {
		for k, f := range fitted {
			dataset, _ := warmKey(k)
			g := e.corpus.graphs[dataset]
			obs := blendObservations(e.predicted[k])
			for _, w := range whatIfWorkers {
				t0 := time.Now()
				if _, err := f.Extrapolate(g, w); err != nil {
					return err
				}
				t1 := time.Now()
				if _, err := f.ExtrapolateBlended(g, w, nil, 0); err != nil {
					return err
				}
				t2 := time.Now()
				if _, err := f.ExtrapolateBlended(g, w, obs, 0); err != nil {
					return err
				}
				t3 := time.Now()
				plainUs = append(plainUs, float64(t1.Sub(t0))/1e3)
				extraUs = append(extraUs, float64(t2.Sub(t1))/1e3)
				interUs = append(interUs, float64(t3.Sub(t2))/1e3)
			}
		}
	}
	l.record("core.extrapolate_us", plainUs)
	l.record("core.blend_extrapolation_us", extraUs)
	l.record("core.blend_interpolation_us", interUs)

	// Allocations and the refit on the stage dataset's PageRank model.
	f, g := fitted[0], e.corpus.graphs[stageDataset]
	obs := blendObservations(e.predicted[0])
	if l.Metrics["core.extrapolate_allocs"], err = allocsPer(200, func(int) error {
		_, err := f.Extrapolate(g, 16)
		return err
	}); err != nil {
		return err
	}
	if l.Metrics["core.blend_interpolation_allocs"], err = allocsPer(200, func(int) error {
		_, err := f.ExtrapolateBlended(g, 16, obs, 0)
		return err
	}); err != nil {
		return err
	}
	// The refit's input has the shape the blend builds: the training rows
	// plus one run of per-iteration rows per observation.
	training := []costmodel.TrainingRun{{Source: "sample", Iters: f.TrainingRows}}
	for _, total := range obs {
		run := costmodel.TrainingRun{Source: "observed"}
		for _, it := range f.IterFeatures {
			run.Iters = append(run.Iters, features.IterationFeatures{Vector: it.Vector, Seconds: total / float64(len(f.IterFeatures))})
		}
		training = append(training, run)
	}
	xs, err := timed(200, time.Microsecond, func(int) error {
		_, err := f.Model.Refit(training)
		return err
	})
	if err != nil {
		return err
	}
	l.record("costmodel.refit_us", xs)
	return nil
}

// historyLayer measures the persistence layer on real files: the fsync'd
// append every fit and observation pays, the load a warm start pays, and
// the compaction rewrite.
func (l *layerReport) historyLayer(e *env, _ *recorder) error {
	recs := l.records
	dir := layersDir(e)
	var encoded bytes.Buffer
	if err := history.Write(&encoded, recs[0]); err != nil {
		return err
	}
	l.Metrics["history.record_bytes"] = float64(encoded.Len())

	appendLog := filepath.Join(dir, "append.jsonl")
	os.Remove(appendLog)
	xs, err := timed(20, time.Millisecond, func(int) error {
		return history.AppendFileSync(appendLog, recs[0])
	})
	if err != nil {
		return err
	}
	l.record("history.append_sync_ms", xs)

	if xs, err = timed(5, time.Millisecond, func(int) error {
		_, _, err := history.LoadFile(e.history)
		return err
	}); err != nil {
		return err
	}
	l.record("history.load_file_ms", xs)

	// A log grown to four times its compacted size, as the default growth
	// factor lets it: every model four times over, and observations.
	var grown bytes.Buffer
	for range 4 {
		if err := history.Write(&grown, recs...); err != nil {
			return err
		}
	}
	for k, key := range e.modelKeys {
		for _, secs := range blendObservations(e.predicted[k]) {
			if err := history.Write(&grown, history.NewObservation(key, secs, 0)); err != nil {
				return err
			}
		}
	}
	compactLog := filepath.Join(dir, "compact.jsonl")
	xs = xs[:0]
	for range 3 {
		if err := os.WriteFile(compactLog, grown.Bytes(), 0o644); err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := history.CompactFile(compactLog); err != nil {
			return err
		}
		xs = append(xs, sinceMs(t0))
	}
	l.record("history.compact_file_ms", xs)
	return nil
}

// readyLocalService is an in-process service with predictd's default
// configuration, warmed from a fresh copy of the prepared history (name,
// under the layers work directory) with every dataset loaded: the state
// set-up leaves a predictd child in. It also returns what the warm start
// and the loads took, in milliseconds.
func readyLocalService(e *env, name string) (svc *service.Service, warmMs, loadMs float64, err error) {
	hist := filepath.Join(layersDir(e), name)
	data, err := os.ReadFile(e.history)
	if err != nil {
		return nil, 0, 0, err
	}
	if err := os.WriteFile(hist, data, 0o644); err != nil {
		return nil, 0, 0, err
	}
	svc = service.New(service.Config{DatasetDir: e.corpus.dir, HistoryPath: hist})
	t0 := time.Now()
	if _, skipped, err := svc.WarmFromHistory(hist); err != nil || skipped > 0 {
		return nil, 0, 0, fmt.Errorf("warming the local service: %d skipped, %v", skipped, err)
	}
	warmMs = sinceMs(t0)
	t0 = time.Now()
	for _, name := range allDatasets() {
		if _, _, err := svc.LoadDataset(context.Background(), name); err != nil {
			return nil, 0, 0, err
		}
	}
	return svc, warmMs, sinceMs(t0), nil
}

// decodeWarmRequests turns generated what-if bodies into the requests
// Service.Predict takes.
func decodeWarmRequests(wire []warmRequest) ([]service.PredictRequest, error) {
	reqs := make([]service.PredictRequest, len(wire))
	for i := range wire {
		if err := json.Unmarshal(wire[i].body, &reqs[i]); err != nil {
			return nil, err
		}
	}
	return reqs, nil
}

// discardWriter is an http.ResponseWriter that keeps nothing, so that
// calling the handler directly measures the handler.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// rewindBody is a request body that can be reset without allocating.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// serviceLayers measures the service layer in process, bottom up along
// the warm chain - extrapolate -> Service.Predict -> Handler -> loopback -
// then its cold path, writes and lifecycle.
func (l *layerReport) serviceLayers(e *env, _ *recorder) error {
	ctx := context.Background()
	// Lifecycle first: three services set up from scratch, the last kept.
	var svc *service.Service
	var warmMs, loadMs []float64
	for i := range 3 {
		s, warm, load, err := readyLocalService(e, fmt.Sprintf("service%d.jsonl", i))
		if err != nil {
			return err
		}
		svc, warmMs, loadMs = s, append(warmMs, warm), append(loadMs, load)
	}
	l.record("service.warm_from_history_ms", warmMs)
	l.record("service.load_dataset_ms", loadMs)

	if err := l.warmChain(e, svc); err != nil {
		return err
	}

	// The cold path's own cost: Service.Predict on a new key, minus
	// FitContext on the same inputs under the same parallelism. What is
	// left is the checkpoint's fsync'd append and the service's glue.
	g := e.corpus.graphs[stageDataset]
	alg, err := configuredAlgorithm("PR", g.NumVertices())
	if err != nil {
		return err
	}
	seeds := newSampleSeeds(newRNG(e.seed, streamLayers), streamLayers)
	var selfMs []float64
	for i := range 5 {
		ss := seeds.at(i)
		runtime.GC()
		t0 := time.Now()
		resp, err := svc.Predict(ctx, service.PredictRequest{Dataset: stageDataset, Algorithm: "PR", SampleSeed: ss})
		if err != nil {
			return err
		}
		cold := sinceMs(t0)
		if resp.CacheHit {
			return fmt.Errorf("local service: fresh sample seed %d was a cache hit", ss)
		}
		runtime.GC()
		t0 = time.Now()
		if _, err := core.New(fitOptions(ss, 0)).FitContext(ctx, alg, g); err != nil {
			return err
		}
		selfMs = append(selfMs, cold-sinceMs(t0))
	}
	l.record("service.predict_cold_self_ms", selfMs)

	// Writes last: observations change what the warm keys answer.
	xs, err := timed(50, time.Microsecond, func(int) error {
		_, err := svc.Observe(ctx, service.ObserveRequest{ModelKey: e.modelKeys[0], ActualSeconds: e.predicted[0]})
		return err
	})
	if err != nil {
		return err
	}
	l.record("service.observe_us", xs)
	snapshot := filepath.Join(layersDir(e), "snapshot.jsonl")
	if xs, err = timed(3, time.Millisecond, func(int) error {
		_, err := svc.SaveHistory(snapshot)
		return err
	}); err != nil {
		return err
	}
	l.record("service.save_history_ms", xs)
	return nil
}

// warmChain measures the warm path bottom up over the what-if list:
// extrapolate -> Service.Predict -> Handler -> loopback.
func (l *layerReport) warmChain(e *env, svc *service.Service) error {
	ctx := context.Background()
	wire := warmRequests(e.seed, 0, 3000)
	reqs, err := decodeWarmRequests(wire)
	if err != nil {
		return err
	}
	fitted := l.fitted

	// Predict on this process's two Ps first, then the chain on one. Every
	// Service.Predict hands its work to a fresh goroutine (the coalescer).
	// On one P that is a goroutine switch. With an idle second P each
	// hand-off also wakes that P through the kernel, twice, and on this VM
	// the wake-ups cost tens of microseconds that come and go with the
	// scheduler's state: waiting, not the layer's work.
	predict := func(i int) error {
		_, err := svc.Predict(ctx, reqs[i])
		return err
	}
	idleP, err := timed(len(reqs), time.Microsecond, predict)
	if err != nil {
		return err
	}
	l.Timings["service.predict_warm_idle_p_us"] = summarize(idleP)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	// The bottom of the chain on the chain's own list: the what-if mix
	// favours some keys, core.blend_extrapolation_us weighs all alike.
	extrapolate := func(i int) (*core.Prediction, string, error) {
		dataset, _ := warmKey(wire[i].key)
		pred, err := fitted[wire[i].key].ExtrapolateBlended(e.corpus.graphs[dataset], reqs[i].Workers, nil, 0)
		return pred, dataset, err
	}
	extrapolateUs, err := timed(len(reqs), time.Microsecond, func(i int) error {
		_, _, err := extrapolate(i)
		return err
	})
	if err != nil {
		return err
	}
	l.Timings["core.blend_extrapolation_whatif_us"] = summarize(extrapolateUs)

	// Service.Predict, and the same answers composed from public pieces:
	// request validation, the registry stat, the blended extrapolation and
	// the response assembly. What Predict costs beyond the composition -
	// keying, the coalescer, the two cache lookups - is unattributed. The
	// two run as separate passes over the list, so that neither finds the
	// graph it walks left in the CPU cache by the other.
	answers := make([]float64, len(reqs))
	predictUs, err := timed(len(reqs), time.Microsecond, func(i int) error {
		resp, err := svc.Predict(ctx, reqs[i])
		if err != nil {
			return err
		}
		if !resp.CacheHit {
			return fmt.Errorf("local service: %s was not a cache hit", wire[i].body)
		}
		answers[i] = resp.SuperstepSeconds
		return nil
	})
	if err != nil {
		return err
	}
	composedUs, err := timed(len(reqs), time.Microsecond, func(i int) error {
		if err := reqs[i].Validate(); err != nil {
			return err
		}
		dataset, _ := warmKey(wire[i].key)
		if _, err := os.Stat(filepath.Join(e.corpus.dir, dataset+".snap")); err != nil {
			return err
		}
		pred, _, err := extrapolate(i)
		if err != nil {
			return err
		}
		composed := service.PredictResponse{
			Algorithm: pred.Algorithm, Dataset: dataset, Iterations: pred.Iterations,
			SuperstepSeconds: pred.SuperstepSeconds, PerIterationSeconds: pred.PerIterationSeconds,
			RemoteMessageBytes: pred.PredictedRemoteMessageBytes, ModelR2: pred.Model.R2(),
			P50Seconds: pred.Runtime.P50Seconds, P95Seconds: pred.Runtime.P95Seconds,
		}
		for _, f := range pred.Model.SelectedFeatures() {
			composed.ModelFeatures = append(composed.ModelFeatures, string(f))
		}
		if composed.SuperstepSeconds != answers[i] {
			return fmt.Errorf("local service: %s: composed prediction %v differs from Service.Predict's %v",
				wire[i].body, composed.SuperstepSeconds, answers[i])
		}
		return nil
	})
	if err != nil {
		return err
	}
	predictP50 := l.record("service.predict_warm_us", predictUs)
	composed := summarize(composedUs)
	l.Timings["service.predict_warm_composed_us"] = composed
	l.Metrics["service.warm_unattributed_share"] = (predictP50 - composed.P50) / predictP50
	if l.Metrics["service.predict_warm_allocs"], err = allocsPer(len(reqs), predict); err != nil {
		return err
	}

	// The handler, called directly with a reusable request and a writer
	// that keeps nothing.
	handler := svc.Handler()
	httpReq, err := http.NewRequest(http.MethodPost, "/predict", nil)
	if err != nil {
		return err
	}
	body := &rewindBody{}
	httpReq.Body = body
	w := &discardWriter{header: http.Header{}}
	serve := func(i int) error {
		body.Reset(wire[i].body)
		clear(w.header)
		w.status = 0
		handler.ServeHTTP(w, httpReq)
		if w.status != http.StatusOK {
			return fmt.Errorf("local handler: status %d for %s", w.status, wire[i].body)
		}
		return nil
	}
	handlerUs, err := timed(len(wire), time.Microsecond, serve)
	if err != nil {
		return err
	}
	handlerP50 := l.record("service.handler_warm_us", handlerUs)
	if l.Metrics["service.handler_warm_allocs"], err = allocsPer(len(wire), serve); err != nil {
		return err
	}

	// The same handler behind net/http on loopback.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: handler}
	served := make(chan struct{})
	go func() {
		defer close(served)
		httpSrv.Serve(ln) // returns when Close is called below
	}()
	loopbackUs, err := func() ([]float64, error) {
		cl, err := dial(ln.Addr().String())
		if err != nil {
			return nil, err
		}
		defer cl.close()
		return timed(len(wire), time.Microsecond, func(i int) error {
			status, _, err := cl.post("/predict", wire[i].body)
			if err != nil || status != 200 {
				return fmt.Errorf("loopback request: status %d, %v", status, err)
			}
			return nil
		})
	}()
	httpSrv.Close()
	<-served
	if err != nil {
		return err
	}
	loopback := summarize(loopbackUs)
	l.Timings["http.loopback_roundtrip_us"] = loopback
	l.Metrics["http.loopback_warm_us"] = loopback.P50 - handlerP50
	return nil
}

// traceOverhead runs the same in-process pass over the what-if list and
// a list of twelve cold fits with spans on and with spans off, alternating, and
// reports by how much the spans slow it down. The pass with spans on is
// what trace.json shows per request.
func (l *layerReport) traceOverhead(e *env, rec *recorder) error {
	ctx := context.Background()
	reqs, err := decodeWarmRequests(warmRequests(e.seed, 0, 2000))
	if err != nil {
		return err
	}
	cold := rotationColdRequests(e.seed, streamLayers+1, 12)
	pass := func(rec *recorder, name string) (float64, error) {
		// Each pass gets its own service, so its cold requests are cold.
		svc, _, _, err := readyLocalService(e, name)
		if err != nil {
			return 0, err
		}
		runtime.GC()
		t0 := time.Now()
		for i := range reqs {
			rec.nextRequest()
			id := rec.begin("service.predict_warm")
			_, err := svc.Predict(ctx, reqs[i])
			rec.end(id)
			if err != nil {
				return 0, err
			}
		}
		for _, c := range cold {
			rec.nextRequest()
			id := rec.begin("service.predict_cold")
			_, err := svc.Predict(ctx, service.PredictRequest{Dataset: c.dataset, Algorithm: c.algorithm, SampleSeed: c.sampleSeed})
			rec.end(id)
			if err != nil {
				return 0, err
			}
		}
		return sinceMs(t0), nil
	}
	var on, off []float64
	for i := range 2 {
		ms, err := pass(newRecorder(false), fmt.Sprintf("overhead-off%d.jsonl", i))
		if err != nil {
			return err
		}
		off = append(off, ms)
		traced := rec
		if i > 0 {
			traced = newRecorder(true) // only the first traced pass is kept
		}
		if ms, err = pass(traced, fmt.Sprintf("overhead-on%d.jsonl", i)); err != nil {
			return err
		}
		on = append(on, ms)
	}
	l.Timings["trace.pass_spans_on_ms"] = summarize(on)
	l.Timings["trace.pass_spans_off_ms"] = summarize(off)
	l.Metrics["trace.overhead_share"] = median(on)/median(off) - 1
	return nil
}
