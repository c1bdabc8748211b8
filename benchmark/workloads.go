package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"warm_whatif", "cold_fit", "mixed_contention", "observe_feedback"}

// Sizing. The counts are what fits the driver's time cap on this 2-core
// box: 4 + 22 x 4 runs, each with its own prepare and set-up, inside 3420 s.
const (
	loadConns       = 2 // closed-loop connections (nproc = 2)
	observesPerKey  = 8 // pre-timing observations on each observed key
	secondsPerRound = 5 // cold_fit runs seconds/secondsPerRound whole rounds

	// Warm-up and probe traffic draw their request lists from seeds of
	// their own, so that no list repeats the timed phase's.
	warmupSeedOffset = 1 << 32
	probeSeedOffset  = 2 << 32
)

// sizing is how much a run does around its timed phase. The smoke test
// shrinks it; everything else uses fullSizing.
type sizing struct {
	setupRepeats int           // set-ups per run; setup_s is their median
	warmup       time.Duration // discarded
	probe        time.Duration // each probe of a metric the workload's own phase lacks
}

var fullSizing = sizing{setupRepeats: 5, warmup: time.Second, probe: 4 * time.Second}

// env is one prepared benchmark environment: the built predictd, the
// generated registry, the history holding the 12 fitted warm keys, and
// the ground truth. Preparing it is harness cost and enters no metric.
type env struct {
	seed       uint64
	scale      float64
	outDir     string
	bin        string
	corpus     *corpus
	history    string             // models.jsonl after the prepare run
	actual     map[string]float64 // "dataset/algorithm" -> superstep seconds
	modelKeys  []string           // per warm key
	predicted  []float64          // per warm key: superstep_seconds at default workers
	stable     [][]byte           // per warm key: the prepare response sans elapsed_ms
	prepareSec float64
	flagLine   string
}

// prepare builds predictd, generates the registry for scale, runs every
// warm algorithm to completion for the ground truth, and runs predictd
// once to fit the 12 warm keys into a history file.
func prepare(seed uint64, scale float64, outDir string) (*env, error) {
	start := time.Now()
	e := &env{seed: seed, scale: scale, outDir: outDir}
	if err := os.RemoveAll(filepath.Join(outDir, "work")); err != nil {
		return nil, err
	}
	var err error
	if e.bin, err = buildPredictd(filepath.Join(outDir, "bin")); err != nil {
		return nil, err
	}
	if e.corpus, err = writeCorpus(filepath.Join(outDir, "work", "datasets"), scale); err != nil {
		return nil, err
	}
	if e.actual, err = e.corpus.actualSeconds(); err != nil {
		return nil, err
	}

	dir := filepath.Join(outDir, "work", "prepare")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e.history = filepath.Join(dir, "models.jsonl")
	srv, err := startServer(e.bin, servingFlags(e.corpus.dir, e.history))
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	e.flagLine = srv.flagLine()
	var t tally
	fitErr := e.fitWarmKeys(srv.addr, &t)
	if err := srv.stop(); err != nil && fitErr == nil {
		fitErr = err
	}
	if fitErr != nil {
		return nil, fmt.Errorf("prepare: %w", fitErr)
	}
	if t.failed > 0 {
		return nil, fmt.Errorf("prepare: fitting the warm keys failed: %v", t.failures)
	}
	e.prepareSec = time.Since(start).Seconds()
	return e, nil
}

// fitWarmKeys sends the first /predict for every warm key, at default
// workers, and records the answers.
func (e *env) fitWarmKeys(addr string, t *tally) error {
	cl, err := dial(addr)
	if err != nil {
		return err
	}
	defer cl.close()
	for k := range numWarmKeys {
		status, body, err := cl.post("/predict", warmPredictBody(k, 0))
		if err != nil {
			return err
		}
		t.attempted++
		a, _ := checkAnswer(t, fmt.Sprintf("fitting warm key %d", k), status, body, false, 0)
		e.modelKeys = append(e.modelKeys, a.ModelKey)
		e.predicted = append(e.predicted, a.SuperstepSeconds)
		// The next identical request is a cache hit; everything else repeats.
		stable := bytes.Replace(stableBody(body), cacheMiss, cacheHit, 1)
		e.stable = append(e.stable, stable)
	}
	return nil
}

// absRelErrMedian is the median of |predicted - actual| / actual over the
// warm keys, for predictions of the superstep-phase seconds.
func (e *env) absRelErrMedian(predicted []float64) float64 {
	errs := make([]float64, len(predicted))
	for k, p := range predicted {
		dataset, alg := warmKey(k)
		actual := e.actual[dataset+"/"+alg]
		errs[k] = math.Abs(p-actual) / actual
	}
	return median(errs)
}

// result is what one run of one workload reports.
type result struct {
	Workload  string             `json:"workload"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	// Layer holds the child's service counters and the client-side
	// detail metrics of this run (the service.* and client.* groups).
	Layer map[string]float64 `json:"layer"`
	// Timings summarizes every latency series behind the metrics.
	Timings           map[string]summary `json:"timings"`
	PredictionsSHA256 string             `json:"predictions_sha256,omitempty"`
	FlagLine          string             `json:"predictd_flags"`
}

// run is the state of one workload run against its own predictd.
type run struct {
	e       *env
	seconds int
	dir     string
	srv     *server
	tally
	setups []float64
}

// startFresh starts a new predictd on a fresh copy of the prepared
// history, stopping the one before.
func (r *run) startFresh() error {
	if r.srv != nil {
		if err := r.srv.stop(); err != nil {
			return err
		}
		r.srv = nil
	}
	hist := filepath.Join(r.dir, "models.jsonl")
	data, err := os.ReadFile(r.e.history)
	if err != nil {
		return err
	}
	if err := os.WriteFile(hist, data, 0o644); err != nil {
		return err
	}
	srv, err := startServer(r.e.bin, servingFlags(r.e.corpus.dir, hist))
	if err != nil {
		return err
	}
	r.srv = srv
	r.setups = append(r.setups, srv.setup.Seconds())
	return nil
}

// askWarmKeys asks every warm key once at default workers and returns the
// stable bodies and predicted seconds. A key without observations must
// answer with exactly the bytes it was fitted with in prepare, whatever
// happened since: a warm start, a restart, or an eviction and refit. A key
// must answer from the cache unless refit is set: after a phase of cold
// fits the LRU has evicted rarely asked warm keys (and an evicted key
// answers /observe with 404), so asking is also what brings them back.
func (r *run) askWarmKeys(obs []int, refit bool) (stable [][]byte, predicted []float64, err error) {
	cl, err := dial(r.srv.addr)
	if err != nil {
		return nil, nil, err
	}
	defer cl.close()
	for k := range numWarmKeys {
		status, body, err := cl.post("/predict", warmPredictBody(k, 0))
		if err != nil {
			return nil, nil, err
		}
		r.attempted++
		if refit {
			body = bytes.Replace(body, cacheMiss, cacheHit, 1)
		}
		a, ok := checkAnswer(&r.tally, fmt.Sprintf("warm key %d", k), status, body, true, windowed(obs[k]))
		if ok && obs[k] == 0 && !bytes.Equal(stableBody(body), r.e.stable[k]) {
			r.fail("warm key %d does not repeat the prediction it was fitted with:\n  fitted %s\n  now    %s", k, r.e.stable[k], stableBody(body))
		}
		stable = append(stable, bytes.Clone(stableBody(body)))
		predicted = append(predicted, a.SuperstepSeconds)
	}
	return stable, predicted, nil
}

// preObserve records observesPerKey observations on each observed key,
// putting those keys in the interpolation regime before timing starts.
func (r *run) preObserve(f *feedbackState) error {
	cl, err := dial(r.srv.addr)
	if err != nil {
		return err
	}
	defer cl.close()
	factors := warmObserveFactors(r.e.seed, observesPerKey)
	for i, k := range observedWarmKeys() {
		for _, factor := range factors[i] {
			if _, err := f.observeOnce(cl, &r.tally, k, factor); err != nil {
				return err
			}
		}
	}
	return nil
}

// runWorkload runs one workload end to end: set-up (sz.setupRepeats times,
// keeping the last server), a check that the warm start reproduces the
// prepared predictions, a discarded warm-up, the timed phase, and then a
// short probe for each end-to-end metric the timed phase does not give,
// so that every workload reports every metric.
func runWorkload(e *env, name string, seconds int, sz sizing) (res *result, err error) {
	r := &run{e: e, seconds: seconds, dir: filepath.Join(e.outDir, "work", name)}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, err
	}
	defer func() {
		if r.srv != nil {
			if stopErr := r.srv.stop(); stopErr != nil && err == nil {
				res, err = nil, stopErr
			}
		}
	}()
	for range sz.setupRepeats {
		if err := r.startFresh(); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
	}
	st, err := r.srv.stats()
	if err != nil {
		return nil, err
	}
	if err := checkDefaultServing(st); err != nil {
		return nil, err
	}

	f := &feedbackState{modelKeys: e.modelKeys, predicted: e.predicted, obs: make([]int, numWarmKeys)}
	_, predicted, err := r.askWarmKeys(f.obs, false)
	if err != nil {
		return nil, err
	}

	res = &result{
		Workload: name, FlagLine: r.srv.flagLine(),
		EndToEnd: map[string]float64{"abs_rel_err_median": e.absRelErrMedian(predicted)},
		Layer:    map[string]float64{},
		Timings:  map[string]summary{},
	}
	d := time.Duration(seconds) * time.Second
	var own phase // the workload's timed phase
	probes := struct{ warm, cold, observe bool }{}
	switch name {
	case "warm_whatif":
		if err := r.preObserve(f); err != nil {
			return nil, err
		}
		if _, err := runWarmClosed(r.srv.addr, e.seed+warmupSeedOffset, loadConns, sz.warmup, f.obs); err != nil {
			return nil, err
		}
		if own, err = runWarmClosed(r.srv.addr, e.seed, loadConns, d, f.obs); err != nil {
			return nil, err
		}
		probes.cold, probes.observe = true, true

	case "cold_fit":
		rounds := max(1, seconds/secondsPerRound)
		reqs := coldRounds(e.seed, rounds+1)
		perRound := len(reqs) / (rounds + 1)
		// Warm-up: the first dataset's five fits of an extra round.
		if _, err := runCold(r.srv.addr, reqs[:len(coldAlgorithms)], time.Time{}); err != nil {
			return nil, err
		}
		if own, err = runCold(r.srv.addr, reqs[perRound:], time.Time{}); err != nil {
			return nil, err
		}
		res.PredictionsSHA256 = predictionsSHA256(own.answers)
		probes.warm, probes.observe = true, true

	case "mixed_contention":
		if err := r.preObserve(f); err != nil {
			return nil, err
		}
		if _, err := runWarmClosed(r.srv.addr, e.seed+warmupSeedOffset, 1, sz.warmup, f.obs); err != nil {
			return nil, err
		}
		if own, err = r.runMixed(d, f.obs); err != nil {
			return nil, err
		}
		probes.warm, probes.observe = true, true

	case "observe_feedback":
		if _, err := runObserveCycles(r.srv.addr, e.seed+warmupSeedOffset, loadConns, sz.warmup, f); err != nil {
			return nil, err
		}
		if own, err = runObserveCycles(r.srv.addr, e.seed, loadConns, d, f); err != nil {
			return nil, err
		}
		probes.cold = true

	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	r.add(own.tally)

	// Memory and counters belong to the workload itself, so they are read
	// before any probe runs.
	if res.EndToEnd["peak_rss_mb"], err = r.srv.peakRSSMB(); err != nil {
		return nil, err
	}
	if st, err = r.srv.stats(); err != nil {
		return nil, err
	}
	for _, c := range serviceCounters {
		res.Layer["service."+c] = st[c]
	}
	if name == "observe_feedback" {
		restartMs, err := r.restartAndCompare(f.obs)
		if err != nil {
			return nil, err
		}
		res.Layer["client.restart_ms"] = restartMs
	}

	if len(own.cold.ms) > 0 {
		if _, _, err := r.askWarmKeys(f.obs, true); err != nil {
			return nil, err
		}
	}

	// Probes, in an order that lets each find the state it expects: warm
	// traffic and cold fits do not change what a warm key answers,
	// observations do, so they go last.
	warm, cold, observe := own.warm, own.cold, own.observe
	closedWarm := own.warm
	if probes.warm {
		p, err := runWarmClosed(r.srv.addr, e.seed+probeSeedOffset, loadConns, sz.probe, f.obs)
		if err != nil {
			return nil, err
		}
		r.add(p.tally)
		closedWarm = p.warm
		if len(warm.ms) == 0 {
			warm = p.warm
		}
	}
	if probes.cold {
		// The cold probe is mixed_contention's cold traffic without the
		// warm stream beside it.
		p, err := runCold(r.srv.addr, rotationColdRequests(e.seed, streamProbeCold, 1000), time.Now().Add(sz.probe))
		if err != nil {
			return nil, err
		}
		r.add(p.tally)
		cold = p.cold
		if _, _, err := r.askWarmKeys(f.obs, true); err != nil {
			return nil, err
		}
	}
	if probes.observe {
		p, err := runObserveCycles(r.srv.addr, e.seed+probeSeedOffset, loadConns, sz.probe, f)
		if err != nil {
			return nil, err
		}
		r.add(p.tally)
		observe = p.observe
	}

	warmSum, coldSum, observeSum := summarize(warm.ms), summarize(cold.ms), summarize(observe.ms)
	res.Timings["warm_predict_ms"] = warmSum
	res.Timings["cold_fit_ms"] = coldSum
	res.Timings["observe_ms"] = observeSum
	setupSum := summarize(r.setups)
	res.Timings["setup_s"] = setupSum
	res.EndToEnd["setup_s"] = setupSum.P50
	res.EndToEnd["warm_predict_rps"] = closedWarm.perSecond()
	res.EndToEnd["warm_predict_p50_ms"] = warmSum.P50
	res.EndToEnd["warm_predict_p95_ms"] = warmSum.P95
	res.EndToEnd["cold_fit_p50_ms"] = coldSum.P50
	res.EndToEnd["cold_fits_per_s"] = cold.perSecond()
	res.EndToEnd["observe_p50_ms"] = observeSum.P50
	res.EndToEnd["observes_per_s"] = observe.perSecond()
	res.Layer["client.warm_predict_p99_ms"] = percentile(warm.ms, 0.99)
	res.Layer["client.cold_fit_p90_ms"] = percentile(cold.ms, 0.90)
	if len(own.lateMs) > 0 {
		late := summarize(own.lateMs)
		res.Timings["open_loop_late_ms"] = late
		res.Layer["client.late_p95_ms"] = late.P95
		res.Layer["client.warm_refits"] = float64(own.refits)
		if late.P95 > maxLateP95Ms {
			r.fail("open-loop generator ran late: p95 %.3f ms exceeds %.1f ms, so the warm latencies of this run are not trustworthy", late.P95, maxLateP95Ms)
		}
	}
	res.Attempted, res.Failed, res.Failures = r.attempted, r.failed, r.failures
	return res, nil
}

// maxLateP95Ms fails a run whose open-loop generator could not keep its
// own schedule. The generator shares two cores with predictd and its fit
// pool, and its wake-ups alone run to about 1 ms at p95 here; a stalled
// generator is several times that.
const maxLateP95Ms = 5.0

// serviceCounters are the GET /stats fields reported per workload.
var serviceCounters = []string{
	"hit_ratio", "fits", "coalesced", "evictions", "shed",
	"checkpoints_written", "compactions", "io_retries", "blend_interpolation",
}

// runMixed runs the open-loop warm stream and, beside it, one closed-loop
// cold client fitting PR with a fresh sample seed per request.
func (r *run) runMixed(d time.Duration, obs []int) (phase, error) {
	type outcome struct {
		p   phase
		err error
	}
	coldc := make(chan outcome, 1)
	stop := time.Now().Add(d)
	go func() {
		// More requests than any machine fits in d; stop ends the client.
		p, err := runCold(r.srv.addr, rotationColdRequests(r.e.seed, streamMixedCold, 200*r.seconds), stop)
		coldc <- outcome{p, err}
	}()
	out, err := runWarmOpen(r.srv.addr, r.e.seed, d, obs)
	c := <-coldc
	if err != nil {
		return out, err
	}
	if c.err != nil {
		return out, c.err
	}
	out.add(c.p.tally)
	out.cold = c.p.cold
	return out, nil
}

// restartAndCompare stops predictd with SIGTERM, starts it again on the
// same history, and verifies that every warm key still holds the same
// number of observations and answers with the same bytes. It returns the
// time from SIGTERM to serving again, in milliseconds.
func (r *run) restartAndCompare(obs []int) (float64, error) {
	before, _, err := r.askWarmKeys(obs, false)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	args := r.srv.args
	if err := r.srv.stop(); err != nil {
		r.srv = nil
		return 0, err
	}
	r.srv = nil
	if r.srv, err = startServer(r.e.bin, args); err != nil {
		return 0, fmt.Errorf("restart: %w", err)
	}
	restartMs := sinceMs(t0)
	after, _, err := r.askWarmKeys(obs, false)
	if err != nil {
		return 0, err
	}
	for k := range before {
		if !bytes.Equal(before[k], after[k]) {
			r.fail("warm key %d answers differently after the restart:\n  before %s\n  after  %s", k, before[k], after[k])
		}
	}
	return restartMs, nil
}

// predictionsSHA256 hashes (key, iterations, superstep_seconds) of the
// cold_fit responses in request order; it must repeat for a seed.
func predictionsSHA256(answers []coldAnswer) string {
	h := sha256.New()
	for _, a := range answers {
		fmt.Fprintf(h, "%s|%d|%s\n", a.key, a.iterations, strconv.FormatFloat(a.seconds, 'g', -1, 64))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
