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
// graph cache.
//
// The lock is sharded by key hash once the capacity is large enough for
// contention to matter: under sustained traffic every request takes the
// model-cache lock at least once, and a single mutex serializes all warm
// hits behind each other. Each shard owns an independent LRU list over
// its slice of the capacity, so the bound stays exact in total while
// hits on different shards never contend. Small caches (capacity below
// 2*cacheShards) keep one shard and therefore exact global LRU order —
// which is also what keeps eviction tests deterministic.
type cache[V any] struct {
	shards []*cacheShard[V]

	// joined counts get calls that waited on a fill another call had
	// started: the sharing /stats reports as coalesced.
	joined atomic.Int64
}

// cacheShards is the shard count for large caches: enough to spread the
// handful of hot keys a serving workload concentrates on, small enough
// that per-shard LRU capacity (max/cacheShards) stays meaningful. Power
// of two so the hash maps to a shard with a mask, not a division.
const cacheShards = 8

// cacheShard is one independently locked slice of the cache.
type cacheShard[V any] struct {
	mu       sync.Mutex
	max      int
	ll       *list.List // front = most recently used
	entries  map[string]*list.Element
	inflight map[string]*flight[V]

	hits, misses, evictions int64
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
	n := 1
	if max >= 2*cacheShards {
		n = cacheShards
	}
	c := &cache[V]{shards: make([]*cacheShard[V], n)}
	for i := range c.shards {
		// Distribute the capacity exactly: the first max%n shards take the
		// remainder, so the total bound is max, not a rounded-up multiple.
		cap := max / n
		if i < max%n {
			cap++
		}
		c.shards[i] = &cacheShard[V]{
			max:      cap,
			ll:       list.New(),
			entries:  make(map[string]*list.Element),
			inflight: make(map[string]*flight[V]),
		}
	}
	return c
}

// shard maps a key to its shard by FNV-1a hash (inlined: no allocation,
// no dependency on the key escaping).
func (c *cache[V]) shard(key string) *cacheShard[V] {
	if len(c.shards) == 1 {
		return c.shards[0]
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return c.shards[h&uint64(len(c.shards)-1)]
}

// get returns the cached value for key, filling it with fill on a miss.
// The boolean reports a cache hit; waiters on an in-flight fill report a
// miss, since they pay cold-path latency (the initiator already counted
// the miss, so they count neither). If ctx expires, get returns ctx.Err()
// but the fill keeps running and caches its result for later requests.
func (c *cache[V]) get(ctx context.Context, key string, fill func() (V, error)) (V, bool, error) {
	s := c.shard(key)
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		s.ll.MoveToFront(el)
		e := el.Value.(*entry[V])
		e.hits++
		s.hits++
		s.mu.Unlock()
		return e.val, true, nil
	}
	f, ok := s.inflight[key]
	if ok {
		c.joined.Add(1)
	} else {
		f = &flight[V]{done: make(chan struct{})}
		s.inflight[key] = f
		s.misses++
		// Run the fill in its own goroutine so an expired ctx abandons
		// only the response: the fill still completes and warms the cache.
		go func() {
			f.val, f.err = fill()
			s.mu.Lock()
			delete(s.inflight, key)
			if f.err == nil {
				s.insert(key, f.val)
			}
			s.mu.Unlock()
			close(f.done)
		}()
	}
	s.mu.Unlock()

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
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		return el.Value.(*entry[V]).val, true
	}
	var zero V
	return zero, false
}

// put inserts a value directly (cache warming).
func (c *cache[V]) put(key string, val V) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.insert(key, val)
}

// insert adds or refreshes an entry and evicts past the shard's bound.
// Callers hold s.mu.
func (s *cacheShard[V]) insert(key string, val V) {
	if el, ok := s.entries[key]; ok {
		s.ll.MoveToFront(el)
		el.Value.(*entry[V]).val = val
		return
	}
	el := s.ll.PushFront(&entry[V]{key: key, val: val, added: time.Now()})
	s.entries[key] = el
	for s.ll.Len() > s.max {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.entries, oldest.Value.(*entry[V]).key)
		s.evictions++
	}
}

// snapshot copies the entries, most recently used first within each
// shard (exact MRU order when the cache has one shard).
func (c *cache[V]) snapshot() []entry[V] {
	var out []entry[V]
	for _, s := range c.shards {
		s.mu.Lock()
		for el := s.ll.Front(); el != nil; el = el.Next() {
			out = append(out, *el.Value.(*entry[V]))
		}
		s.mu.Unlock()
	}
	return out
}

func (c *cache[V]) len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

func (c *cache[V]) counters() (hits, misses, evictions int64) {
	for _, s := range c.shards {
		s.mu.Lock()
		hits += s.hits
		misses += s.misses
		evictions += s.evictions
		s.mu.Unlock()
	}
	return hits, misses, evictions
}
