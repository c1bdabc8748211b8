package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"
)

// tally counts operations attempted and failed. A non-200 response is a
// failure; so is a wrong cache_hit or blend_regime, or a body that differs
// from an earlier response to the same request apart from elapsed_ms.
type tally struct {
	attempted, failed int
	failures          []string // the first few, for the report
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.failures) < 8 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, f := range o.failures {
		if len(t.failures) < 8 {
			t.failures = append(t.failures, f)
		}
	}
}

// series is the latencies of one class of operation over one phase.
type series struct {
	ms      []float64
	elapsed time.Duration // wall time the operations were issued over
}

func (s series) perSecond() float64 {
	if s.elapsed <= 0 {
		return 0
	}
	return float64(len(s.ms)) / s.elapsed.Seconds()
}

// phase is what one phase of a workload measured.
type phase struct {
	tally
	warm, cold, observe series
	lateMs              []float64    // open-loop generator lateness
	refits              int          // open-loop warm answers that had to refit an evicted key
	answers             []coldAnswer // cold responses, in request order
}

// coldAnswer is what predictions_sha256 hashes of one cold response.
type coldAnswer struct {
	key        string
	iterations int
	seconds    float64
}

// answer is the part of a /predict response the checks read.
type answer struct {
	ModelKey         string  `json:"model_key"`
	Iterations       int     `json:"iterations"`
	SuperstepSeconds float64 `json:"superstep_seconds"`
	CacheHit         bool    `json:"cache_hit"`
	BlendRegime      string  `json:"blend_regime"`
	Observations     int     `json:"observations"`
}

const (
	regimeExtrapolation  = "extrapolation"
	regimeInterpolation  = "interpolation"
	interpolationAt      = 5  // predictd's default -blend-threshold
	observationWindowCap = 64 // history.MaxObservationsPerKey
)

// expectedRegime is the regime a key with n observations answers in.
func expectedRegime(n int) string {
	if n >= interpolationAt {
		return regimeInterpolation
	}
	return regimeExtrapolation
}

var (
	elapsedField = []byte(`,"elapsed_ms":`)
	cacheMiss    = []byte(`"cache_hit":false`)
	cacheHit     = []byte(`"cache_hit":true`)
)

// stableBody strips the trailing elapsed_ms field, the only part of a
// response that may differ between identical requests.
func stableBody(body []byte) []byte {
	if i := bytes.LastIndex(body, elapsedField); i >= 0 {
		return body[:i]
	}
	return body
}

// checkAnswer decodes a /predict response and verifies its status,
// cache_hit, blend_regime and observation count.
func checkAnswer(t *tally, what string, status int, body []byte, wantHit bool, wantObs int) (answer, bool) {
	var a answer
	if status != 200 {
		t.fail("%s: status %d: %s", what, status, body)
		return a, false
	}
	if err := json.Unmarshal(body, &a); err != nil {
		t.fail("%s: undecodable body: %v", what, err)
		return a, false
	}
	switch {
	case a.CacheHit != wantHit:
		t.fail("%s: cache_hit %v, want %v", what, a.CacheHit, wantHit)
	case a.Observations != wantObs:
		t.fail("%s: observations %d, want %d", what, a.Observations, wantObs)
	case a.BlendRegime != expectedRegime(wantObs):
		t.fail("%s: blend_regime %q with %d observations", what, a.BlendRegime, wantObs)
	default:
		return a, true
	}
	return a, false
}

// sinceMs is the time since t0 in milliseconds.
func sinceMs(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e6 }

// warmChecker verifies the responses one connection receives to what-if
// requests: the first response to each variant is checked in full, every
// later one must repeat its bytes.
type warmChecker struct {
	obs  []int    // observations recorded per warm key
	seen [][]byte // first stable body per variant
	// refits counts answers with cache_hit false where that is allowed:
	// beside a stream of cold fits the LRU may evict a rarely asked warm
	// key, and refitting it is then the right answer, not a failure. The
	// refitted prediction must still repeat every other byte.
	allowRefit bool
	refits     int
}

func newWarmChecker(obs []int) *warmChecker {
	return &warmChecker{obs: obs, seen: make([][]byte, numWarmVariants())}
}

func (w *warmChecker) check(t *tally, req *warmRequest, status int, body []byte) {
	if w.allowRefit && bytes.Contains(body, cacheMiss) {
		w.refits++
		body = bytes.Replace(body, cacheMiss, cacheHit, 1)
	}
	if first := w.seen[req.variant]; first != nil {
		if status != 200 || !bytes.Equal(stableBody(body), first) {
			t.fail("warm %s: status %d, body differs from the first response:\n  first %s\n  now   %s", req.body, status, first, body)
		}
		return
	}
	if _, ok := checkAnswer(t, "warm "+string(req.body), status, body, true, w.obs[req.key]); ok {
		w.seen[req.variant] = bytes.Clone(stableBody(body))
	}
}

// agree verifies that two connections saw the same bytes per variant.
func (w *warmChecker) agree(t *tally, o *warmChecker) {
	for v, a := range w.seen {
		if b := o.seen[v]; a != nil && b != nil && !bytes.Equal(a, b) {
			t.fail("warm variant %d: the two connections received different bodies:\n  %s\n  %s", v, a, b)
		}
	}
}

// warmListLen is the length of a connection's what-if list; a phase
// cycles through it until its time is up.
const warmListLen = 4096

// merge adds what another connection measured in the same phase.
func (p *phase) merge(o phase) {
	p.add(o.tally)
	p.warm.ms = append(p.warm.ms, o.warm.ms...)
	p.cold.ms = append(p.cold.ms, o.cold.ms...)
	p.observe.ms = append(p.observe.ms, o.observe.ms...)
}

// eachConn runs fn on conns connections at once, each with a client and
// a phase of its own, and merges the phases once the connections are done.
func eachConn(addr string, conns int, fn func(c int, cl *client, p *phase) error) (phase, error) {
	var (
		mu   sync.Mutex
		out  phase
		errs = make([]error, conns)
		wg   sync.WaitGroup
	)
	for c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := dial(addr)
			if err != nil {
				errs[c] = err
				return
			}
			defer cl.close()
			var p phase
			if errs[c] = fn(c, cl, &p); errs[c] != nil {
				return
			}
			mu.Lock()
			out.merge(p)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// runWarmClosed drives closed-loop what-if traffic on conns keep-alive
// connections for d: each connection sends its next request when the
// previous one completes.
func runWarmClosed(addr string, seed uint64, conns int, d time.Duration, obs []int) (phase, error) {
	checkers := make([]*warmChecker, conns)
	for c := range checkers {
		checkers[c] = newWarmChecker(obs)
	}
	start := time.Now()
	out, err := eachConn(addr, conns, func(c int, cl *client, p *phase) error {
		reqs := warmRequests(seed, c, warmListLen)
		for i := 0; time.Since(start) < d; i++ {
			req := &reqs[i%len(reqs)]
			t0 := time.Now()
			status, body, err := cl.post("/predict", req.body)
			if err != nil {
				return err
			}
			p.warm.ms = append(p.warm.ms, sinceMs(t0))
			p.attempted++
			checkers[c].check(&p.tally, req, status, body)
		}
		return nil
	})
	out.warm.elapsed = time.Since(start)
	if err != nil {
		return out, fmt.Errorf("warm client: %w", err)
	}
	for c := 1; c < conns; c++ {
		checkers[0].agree(&out.tally, checkers[c])
	}
	return out, nil
}

// openLoopRate is mixed_contention's warm arrival rate in requests/s.
const openLoopRate = 150

// waitUntil sleeps until shortly before t and spins the rest: time.Sleep
// alone overshoots by more than the lateness the open loop tolerates.
func waitUntil(t time.Time) {
	if d := time.Until(t) - 300*time.Microsecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
	}
}

// runWarmOpen sends what-if requests on one connection at openLoopRate
// for d, on a schedule that does not wait for the server: request i is
// due at start + i/rate, its latency is timed from that due time, and a
// request whose predecessor is still outstanding when it falls due goes
// out as soon as the connection is free. lateMs records how late the
// generator itself was: the send time past the later of the due time and
// the moment the connection became free.
func runWarmOpen(addr string, seed uint64, d time.Duration, obs []int) (phase, error) {
	var out phase
	cl, err := dial(addr)
	if err != nil {
		return out, err
	}
	defer cl.close()
	reqs := warmRequests(seed, 0, warmListLen)
	checker := newWarmChecker(obs)
	checker.allowRefit = true
	interval := time.Second / openLoopRate
	start := time.Now()
	free := start
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if due.Sub(start) >= d {
			break
		}
		ready := due
		if free.After(ready) {
			ready = free
		}
		waitUntil(ready)
		sent := time.Now()
		req := &reqs[i%len(reqs)]
		status, body, err := cl.post("/predict", req.body)
		if err != nil {
			return out, fmt.Errorf("open-loop client: %w", err)
		}
		free = time.Now()
		out.lateMs = append(out.lateMs, float64(sent.Sub(ready))/1e6)
		out.warm.ms = append(out.warm.ms, float64(free.Sub(due))/1e6)
		out.attempted++
		checker.check(&out.tally, req, status, body)
	}
	out.warm.elapsed = time.Since(start)
	out.refits = checker.refits
	return out, nil
}

// runCold issues cold requests closed-loop on one connection. It stops
// early once stop (if set) has passed, after the request in flight.
func runCold(addr string, reqs []coldRequest, stop time.Time) (phase, error) {
	var out phase
	cl, err := dial(addr)
	if err != nil {
		return out, err
	}
	defer cl.close()
	start := time.Now()
	for i := range reqs {
		if !stop.IsZero() && !time.Now().Before(stop) {
			break
		}
		t0 := time.Now()
		status, body, err := cl.post("/predict", reqs[i].body)
		if err != nil {
			return out, fmt.Errorf("cold client: %w", err)
		}
		out.cold.ms = append(out.cold.ms, sinceMs(t0))
		out.attempted++
		a, _ := checkAnswer(&out.tally, "cold "+string(reqs[i].body), status, body, false, 0)
		out.answers = append(out.answers, coldAnswer{a.ModelKey, a.Iterations, a.SuperstepSeconds})
	}
	out.cold.elapsed = time.Since(start)
	return out, nil
}

// feedbackState is what observe traffic needs to know about the warm
// keys: each key's model key and predicted seconds (the centre of the
// actual runtimes it reports) and how many observations the server holds.
type feedbackState struct {
	modelKeys []string
	predicted []float64
	obs       []int // observations recorded per key, uncapped
}

// windowed is the observation count the server reports for n recorded.
func windowed(n int) int { return min(n, observationWindowCap) }

// observeOnce posts one observation for key k and checks the reply.
func (f *feedbackState) observeOnce(cl *client, t *tally, k int, factor float64) (float64, error) {
	t0 := time.Now()
	status, body, err := cl.post("/observe", observeBody(f.modelKeys[k], f.predicted[k]*factor))
	if err != nil {
		return 0, err
	}
	ms := sinceMs(t0)
	t.attempted++
	f.obs[k]++
	var reply struct {
		Observations int    `json:"observations"`
		BlendRegime  string `json:"blend_regime"`
		Persisted    bool   `json:"persisted"`
	}
	switch want := windowed(f.obs[k]); {
	case status != 200:
		t.fail("observe key %d: status %d: %s", k, status, body)
	case json.Unmarshal(body, &reply) != nil:
		t.fail("observe key %d: undecodable body %s", k, body)
	case reply.Observations != want || reply.BlendRegime != expectedRegime(want) || !reply.Persisted:
		t.fail("observe key %d: got %s, want %d observations, regime %s, persisted", k, body, want, expectedRegime(want))
	}
	return ms, nil
}

// predictsPerCycle is the /predict calls that follow each /observe.
const predictsPerCycle = 3

// runObserveCycles drives closed-loop feedback traffic on conns
// connections for d. Each cycle is one /observe followed by
// predictsPerCycle /predict on the same warm key; the predictions must
// reflect the observation just made and agree with each other.
func runObserveCycles(addr string, seed uint64, conns int, d time.Duration, f *feedbackState) (phase, error) {
	start := time.Now()
	out, err := eachConn(addr, conns, func(c int, cl *client, p *phase) error {
		cycles := observeCycles(seed, c, conns, warmListLen)
		var first []byte
		for i := 0; time.Since(start) < d; i++ {
			cy := cycles[i%len(cycles)]
			// f.obs[cy.key] is touched by this connection only: the
			// keys are split between the connections.
			ms, err := f.observeOnce(cl, &p.tally, cy.key, cy.factor)
			if err != nil {
				return err
			}
			p.observe.ms = append(p.observe.ms, ms)
			payload := warmPredictBody(cy.key, cy.workers)
			for j := range predictsPerCycle {
				t0 := time.Now()
				status, body, err := cl.post("/predict", payload)
				if err != nil {
					return err
				}
				p.warm.ms = append(p.warm.ms, sinceMs(t0))
				p.attempted++
				if j == 0 {
					first = first[:0]
					if _, ok := checkAnswer(&p.tally, "predict after observe", status, body, true, windowed(f.obs[cy.key])); ok {
						first = append(first, stableBody(body)...)
					}
				} else if len(first) > 0 && (status != 200 || !bytes.Equal(stableBody(body), first)) {
					p.fail("predict %s: status %d, body differs within one cycle", payload, status)
				}
			}
		}
		return nil
	})
	out.observe.elapsed = time.Since(start)
	out.warm.elapsed = out.observe.elapsed
	if err != nil {
		return out, fmt.Errorf("observe client: %w", err)
	}
	return out, nil
}
