package graph

import (
	"errors"
	"sync"
)

// MemoFamilyLimit is the most values a Memo remembers at once.
const MemoFamilyLimit = 8

// errMemoAbandoned is what the waiters of a flight see when the goroutine
// computing it panicked out of compute.
var errMemoAbandoned = errors.New("graph: memo: the computing call did not return")

// Memo remembers values derived from one Graph: a keyed, single-flight,
// bounded memo that lives on the graph (see Graph.Memo) and is freed with
// it. Nothing global ever references a graph, or anything computed from
// one, through it.
//
// A Memo holds one family at a time: the values of the most recent family
// asked for, at most MemoFamilyLimit of them. Asking for another family
// drops the previous one whole, so however many families are thrown at a
// graph it holds the values of one — memory is bounded by construction,
// and a stream of distinct families costs exactly what recomputing costs.
// Values past the limit are computed and handed back, never remembered.
//
// Everything remembered must be immutable once compute returns it: every
// later caller shares the same value.
type Memo struct {
	mu      sync.Mutex
	family  any
	flights map[any]*memoFlight
}

// memoFlight is one value, being computed or remembered. val and err are
// written once, before done is closed.
type memoFlight struct {
	done chan struct{}
	val  any
	err  error
}

// Memo returns g's memo for owner, creating it on first use. owner names
// the purpose, not the content: a comparable value of a type private to
// the calling package (the context-key idiom), so two packages remembering
// different things on one graph never evict each other, and the memos a
// graph can hold are as many as the call sites that name one.
func (g *Graph) Memo(owner any) *Memo {
	g.memoMu.Lock()
	defer g.memoMu.Unlock()
	m := g.memos[owner]
	if m == nil {
		if g.memos == nil {
			g.memos = make(map[any]*Memo)
		}
		m = new(Memo)
		g.memos[owner] = m
	}
	return m
}

// derivedMemo names the memo a graph keeps what it derives from itself
// in, one derivedKey each; the family never changes, so nothing in it is
// ever dropped while the graph lives.
type derivedMemo struct{}

// derivedKey names one value a graph derives from itself.
type derivedKey int

const (
	degreeArtifactsKey derivedKey = iota
	sortedInDegreesKey
	undirectedKey
)

// derived returns g's value under key, built by build on first use and
// shared by every later and concurrent caller.
func derived[T any](g *Graph, key derivedKey, build func() T) T {
	v, _, _ := g.Memo(derivedMemo{}).Do(derivedMemo{}, key, func() (any, error) {
		return build(), nil
	})
	return v.(T)
}

// Do returns the value remembered under (family, key), calling compute
// for it on first use; family and key must be comparable. Concurrent
// calls for one (family, key) share a single compute. reused reports that
// the value came from an earlier or concurrent call, not from this call's
// compute. A failed compute is reported to the calls that shared it and
// not remembered: the next call computes again.
//
// compute runs without the memo's lock held and may use other families'
// memos, but must not call Do for its own (family, key).
func (m *Memo) Do(family, key any, compute func() (any, error)) (val any, reused bool, err error) {
	m.mu.Lock()
	if m.family != family || m.flights == nil {
		// Flights of the dropped family finish for the calls already
		// waiting on them; nothing remembers them afterwards.
		m.family = family
		m.flights = make(map[any]*memoFlight)
	}
	flights := m.flights
	if f, ok := flights[key]; ok {
		m.mu.Unlock()
		<-f.done
		return f.val, f.err == nil, f.err
	}
	if len(flights) >= MemoFamilyLimit {
		m.mu.Unlock()
		val, err = compute()
		return val, false, err
	}
	f := &memoFlight{done: make(chan struct{}), err: errMemoAbandoned}
	flights[key] = f
	m.mu.Unlock()

	defer func() {
		if f.err != nil {
			// flights is this flight's own family's map even if the memo
			// has moved on to another family since.
			m.mu.Lock()
			delete(flights, key)
			m.mu.Unlock()
		}
		close(f.done)
	}()
	f.val, f.err = compute()
	return f.val, false, f.err
}
