package service

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// cache is an LRU-bounded cache with single-flight fills: concurrent
// misses on the same key share one fill instead of racing N expensive
// computations. It backs both the fitted-model cache and the generated-
// graph cache. One lock guards one LRU list, so the bound and the
// eviction order are exact at every capacity; the lock is held for a map
// lookup and a list splice, never across a fill.
type cache[V any] struct {
	mu       sync.Mutex
	max      int
	ll       *list.List // front = most recently used
	entries  map[string]*list.Element
	inflight map[string]*flight[V]

	hits, misses, evictions int64

	// joined counts get calls that waited on a fill another call had
	// started: the sharing /stats reports as coalesced.
	joined atomic.Int64
}

// entry is one cached value plus bookkeeping.
type entry[V any] struct {
	key   string
	val   V
	hits  int64
	added time.Time
}

// flight is one in-progress fill that waiters share.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

func newCache[V any](max int) *cache[V] {
	return &cache[V]{
		max:      max,
		ll:       list.New(),
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]*flight[V]),
	}
}

// get returns the cached value for key, filling it with fill on a miss.
// The boolean reports a cache hit; waiters on an in-flight fill report a
// miss, since they pay cold-path latency (the initiator already counted
// the miss, so they count neither). If ctx expires, get returns ctx.Err()
// but the fill keeps running and caches its result for later requests.
func (c *cache[V]) get(ctx context.Context, key string, fill func() (V, error)) (V, bool, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*entry[V])
		e.hits++
		c.hits++
		c.mu.Unlock()
		return e.val, true, nil
	}
	f, ok := c.inflight[key]
	if ok {
		c.joined.Add(1)
	} else {
		f = &flight[V]{done: make(chan struct{})}
		c.inflight[key] = f
		c.misses++
		// Run the fill in its own goroutine so an expired ctx abandons
		// only the response: the fill still completes and warms the cache.
		go func() {
			f.val, f.err = fill()
			c.mu.Lock()
			delete(c.inflight, key)
			if f.err == nil {
				c.insert(key, f.val)
			}
			c.mu.Unlock()
			close(f.done)
		}()
	}
	c.mu.Unlock()

	select {
	case <-f.done:
		return f.val, false, f.err
	case <-ctx.Done():
		var zero V
		return zero, false, ctx.Err()
	}
}

// peek returns the cached value for key without counting a hit or
// refreshing LRU order — inventory endpoints observe the cache without
// perturbing it.
func (c *cache[V]) peek(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		return el.Value.(*entry[V]).val, true
	}
	var zero V
	return zero, false
}

// put inserts a value directly (cache warming).
func (c *cache[V]) put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insert(key, val)
}

// insert adds or refreshes an entry and evicts past the bound. Callers
// hold c.mu.
func (c *cache[V]) insert(key string, val V) {
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*entry[V]).val = val
		return
	}
	el := c.ll.PushFront(&entry[V]{key: key, val: val, added: time.Now()})
	c.entries[key] = el
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*entry[V]).key)
		c.evictions++
	}
}

// snapshot copies the entries, most recently used first.
func (c *cache[V]) snapshot() []entry[V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]entry[V], 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, *el.Value.(*entry[V]))
	}
	return out
}

func (c *cache[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

func (c *cache[V]) counters() (hits, misses, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}
