// Per-model-key circuit breaker for the cold fit path.
//
// A dataset that keeps failing to fit — corrupt file, flaky storage, a
// pathological configuration — would otherwise consume a fit-pool slot on
// every request that misses the cache, starving cold fits that would have
// succeeded. The breaker converts repeated doomed fits into immediate
// 503 + Retry-After answers: after breakerThreshold consecutive failures
// for one model key the breaker opens and requests for that key fast-fail
// BEFORE touching the fit gate or pool. After breakerCooldown one probe
// request is let through (half-open); its success closes the breaker, its
// failure reopens it for another cooldown.
//
// State is per model key and only failing keys hold state at all: a
// success deletes the entry, so the steady-state map is empty and the
// warm path never consults it (breakers sit inside the cache-miss fill).
package service

import (
	"sync"
	"sync/atomic"
	"time"
)

const (
	// breakerThreshold is how many consecutive fit failures open a key's
	// breaker; breakerCooldown how long it stays open before a probe.
	breakerThreshold = 5
	breakerCooldown  = 5 * time.Second
)

const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

type breakerEntry struct {
	state    int
	failures int       // consecutive failures while closed
	openedAt time.Time // when the breaker last opened
	probing  bool      // a half-open probe is in flight
}

// breakerSet holds the per-key breakers plus the /stats counters.
type breakerSet struct {
	mu    sync.Mutex
	byKey map[string]*breakerEntry
	// now is the clock openedAt and the cooldown are read from; tests
	// advance it instead of sleeping through breakerCooldown.
	now func() time.Time

	trips     atomic.Int64 // closed/half-open -> open transitions
	fastFails atomic.Int64 // requests rejected while open
}

func newBreakerSet() breakerSet {
	return breakerSet{byKey: make(map[string]*breakerEntry), now: time.Now}
}

// allow reports whether a fit attempt for key may proceed. While open it
// returns false plus how long the caller should tell the client to wait;
// when the cooldown has elapsed it admits exactly one probe (half-open).
func (b *breakerSet) allow(key string) (proceed bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.byKey[key]
	if e == nil || e.state == breakerClosed {
		return true, 0
	}
	remaining := breakerCooldown - b.now().Sub(e.openedAt)
	if e.state == breakerOpen && remaining <= 0 {
		e.state = breakerHalfOpen
	}
	if e.state == breakerHalfOpen {
		if e.probing {
			// One probe at a time: concurrent requests keep fast-failing
			// until the in-flight probe settles the state.
			b.fastFails.Add(1)
			return false, breakerCooldown
		}
		e.probing = true
		return true, 0
	}
	b.fastFails.Add(1)
	return false, remaining
}

// success records a successful fit: the key's breaker closes and its
// state is dropped entirely.
func (b *breakerSet) success(key string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.byKey, key)
}

// failure records a failed fit. Consecutive failures reaching the
// threshold — or any failed half-open probe — open the breaker.
func (b *breakerSet) failure(key string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.byKey[key]
	if e == nil {
		e = &breakerEntry{}
		b.byKey[key] = e
	}
	e.probing = false
	if e.state == breakerHalfOpen {
		e.state = breakerOpen
		e.openedAt = b.now()
		b.trips.Add(1)
		return
	}
	e.failures++
	if e.state == breakerClosed && e.failures >= breakerThreshold {
		e.state = breakerOpen
		e.openedAt = b.now()
		b.trips.Add(1)
	}
}

// skip releases a half-open probe admission without judging the fit —
// used when the attempt was shed by the fit gate before fitting, which
// says nothing about whether the key's fits still fail.
func (b *breakerSet) skip(key string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if e := b.byKey[key]; e != nil {
		e.probing = false
	}
}

// openCount reports how many model keys are currently open (for /stats).
func (b *breakerSet) openCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, e := range b.byKey {
		if e.state != breakerClosed {
			n++
		}
	}
	return n
}
