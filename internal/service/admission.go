// Admission control and prediction coalescing — the two mechanisms that
// keep the serving path responsive under sustained mixed cold/warm
// traffic.
//
// Admission: cold fits are orders of magnitude more expensive than warm
// hits (~ms of CPU vs ~µs), and without a bound a burst of distinct cold
// requests queues unbounded work behind the fit pool, growing cold-path
// latency without limit and starving warm traffic of CPU. An admission
// gate bounds how many cold fits may be outstanding (running + queued);
// past the bound, the miss is shed immediately with 503 + Retry-After
// instead of joining a queue it would time out in anyway. Warm hits
// never touch the gate. A second, optional gate bounds total in-flight
// HTTP requests (429 + Retry-After) for operators who want a hard
// concurrency ceiling.
//
// Coalescing: the model cache's single-flight already collapses
// concurrent fits of one model key. The coalescer extends that to the
// whole prediction — graph lookup, model lookup, extrapolation, response
// assembly — keyed by (model key, what-if workers, observation epoch).
// Concurrent identical predictions always share one computation; with a
// batch window configured, the computed prediction additionally stays
// shareable for the window after it completes. Predictions are
// deterministic (same fitted model + same graph + same workers + same
// observation window => identical response), so sharing never changes
// response bytes — only elapsed_ms, which is stamped per request. The
// epoch in the key is what keeps that true under feedback: a request that
// arrives after an /observe was acknowledged carries the bumped epoch and
// never joins a computation that read the window before it.
//
// What a computation costs once the model is cached is a separate
// matter: the assembled answer is kept on the model-cache entry per
// (workers, observation epoch) — see template.go — so a repeated query is
// a lookup whether or not a window is configured.
package service

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// gate is a try-acquire counting semaphore with shed accounting. A nil
// slots channel means unlimited (the gate always admits).
type gate struct {
	slots chan struct{}
	shed  atomic.Int64
}

// newGate returns a gate admitting at most depth holders; depth <= 0
// means unlimited.
func newGate(depth int) *gate {
	g := &gate{}
	if depth > 0 {
		g.slots = make(chan struct{}, depth)
	}
	return g
}

// tryAcquire admits the caller or records a shed and returns false.
// It never blocks: shedding at the door is the point.
func (g *gate) tryAcquire() bool {
	if g.slots == nil {
		return true
	}
	select {
	case g.slots <- struct{}{}:
		return true
	default:
		g.shed.Add(1)
		return false
	}
}

func (g *gate) release() {
	if g.slots != nil {
		<-g.slots
	}
}

// held reports how many slots are currently acquired (the fit-queue
// depth /stats exposes).
func (g *gate) held() int64 {
	if g.slots == nil {
		return 0
	}
	return int64(len(g.slots))
}

// capacity reports the configured bound; 0 means unlimited.
func (g *gate) capacity() int {
	if g.slots == nil {
		return 0
	}
	return cap(g.slots)
}

// predFlight is one coalesced prediction computation. resp is the
// immutable response template (ElapsedMillis zero); sharers copy it and
// stamp their own latency.
type predFlight struct {
	done chan struct{}
	resp *PredictResponse
	err  error
}

// coalescer shares prediction computations between requests for the same
// (model key, workers, observation epoch). window > 0 keeps completed
// predictions shareable for that long after they finish; window == 0
// coalesces only requests that overlap in flight.
type coalescer struct {
	mu     sync.Mutex
	window time.Duration
	m      map[string]*predFlight

	// coalesced counts responses served by sharing another request's
	// computation (mid-flight waiters and window sharers alike).
	coalesced atomic.Int64
}

func newCoalescer(window time.Duration) *coalescer {
	if window < 0 {
		window = 0
	}
	return &coalescer{window: window, m: make(map[string]*predFlight)}
}

// do returns the prediction for key, computing it with compute if no
// shareable one exists. The boolean reports that the caller joined a
// computation that had already completed (a window sharer): such callers
// are semantically cache hits regardless of what the original computer
// observed, because the model was certainly cached by the time they
// arrived.
//
// compute runs detached from ctx (like the cache fills it wraps): a
// caller whose ctx expires abandons only its response, and every other
// sharer — present and future — still gets the result. Failed
// computations are forgotten immediately, never held for the window, so
// an error is retried by the next request rather than replayed to it.
func (c *coalescer) do(ctx context.Context, key string, compute func() (*PredictResponse, error)) (resp *PredictResponse, joinedDone bool, err error) {
	c.mu.Lock()
	f, ok := c.m[key]
	if ok {
		select {
		case <-f.done:
			joinedDone = true
		default:
		}
		c.mu.Unlock()
		c.coalesced.Add(1)
		select {
		case <-f.done:
			return f.resp, joinedDone, f.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	f = &predFlight{done: make(chan struct{})}
	c.m[key] = f
	c.mu.Unlock()

	go func() {
		f.resp, f.err = compute()
		c.mu.Lock()
		if f.err != nil || c.window == 0 {
			delete(c.m, key)
		} else {
			// Hold the completed prediction open for the batch window, then
			// forget it. The timer owns the removal: a flight is deleted
			// exactly once, by its error path or by its timer.
			time.AfterFunc(c.window, func() {
				c.mu.Lock()
				if c.m[key] == f {
					delete(c.m, key)
				}
				c.mu.Unlock()
			})
		}
		c.mu.Unlock()
		close(f.done)
	}()

	select {
	case <-f.done:
		return f.resp, false, f.err
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
}
