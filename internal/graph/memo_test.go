package graph

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type (
	memoOwnerA struct{}
	memoOwnerB struct{}
)

// counted returns a compute that counts its calls and yields v.
func counted(calls *atomic.Int64, v any) func() (any, error) {
	return func() (any, error) {
		calls.Add(1)
		return v, nil
	}
}

func TestMemoRemembersPerFamilyAndKey(t *testing.T) {
	g := MustFromEdges(2, [][2]VertexID{{0, 1}})
	m := g.Memo(memoOwnerA{})
	if g.Memo(memoOwnerA{}) != m {
		t.Fatal("one owner, two memos")
	}
	var calls atomic.Int64
	for i := 0; i < 3; i++ {
		v, reused, err := m.Do("fam", 1, counted(&calls, "one"))
		if err != nil || v != "one" || reused != (i > 0) {
			t.Fatalf("call %d: %v, reused %v, err %v", i, v, reused, err)
		}
	}
	if v, reused, _ := m.Do("fam", 2, counted(&calls, "two")); v != "two" || reused {
		t.Fatalf("second key: %v, reused %v", v, reused)
	}
	if calls.Load() != 2 {
		t.Fatalf("%d computes for two keys", calls.Load())
	}

	// Another owner on the same graph is another memo: it neither sees
	// nor evicts this one's family.
	if v, reused, _ := g.Memo(memoOwnerB{}).Do("other", 1, counted(&calls, "b")); v != "b" || reused {
		t.Fatalf("owner B: %v, reused %v", v, reused)
	}
	if _, reused, _ := m.Do("fam", 1, counted(&calls, "one")); !reused {
		t.Fatal("owner B's family evicted owner A's")
	}
}

// TestMemoHoldsOneBoundedFamily pins the bound: one family at a time, at
// most MemoFamilyLimit values of it, whatever is thrown at the memo.
func TestMemoHoldsOneBoundedFamily(t *testing.T) {
	m := new(Graph).Memo(memoOwnerA{})
	var calls atomic.Int64
	for key := 0; key < 3*MemoFamilyLimit; key++ {
		if _, reused, _ := m.Do("a", key, counted(&calls, key)); reused {
			t.Fatalf("key %d reused on first use", key)
		}
	}
	if len(m.flights) != MemoFamilyLimit {
		t.Fatalf("memo holds %d values, limit %d", len(m.flights), MemoFamilyLimit)
	}
	calls.Store(0)
	for key := 0; key < 3*MemoFamilyLimit; key++ {
		v, reused, _ := m.Do("a", key, counted(&calls, key))
		if v != key || reused != (key < MemoFamilyLimit) {
			t.Fatalf("key %d: %v, reused %v", key, v, reused)
		}
	}
	if want := int64(2 * MemoFamilyLimit); calls.Load() != want {
		t.Fatalf("%d computes past the limit, want %d", calls.Load(), want)
	}

	// Two interleaved families thrash: each call replaces the other's
	// family, so every call computes — exactly the cost of no memo — and
	// the memo never holds more than the last one.
	calls.Store(0)
	for i := 0; i < 10; i++ {
		for _, fam := range []string{"x", "y"} {
			if _, reused, _ := m.Do(fam, 0, counted(&calls, fam)); reused {
				t.Fatalf("round %d: family %s survived the other", i, fam)
			}
			if m.family != fam || len(m.flights) != 1 {
				t.Fatalf("memo holds family %v with %d values", m.family, len(m.flights))
			}
		}
	}
	if calls.Load() != 20 {
		t.Fatalf("%d computes for 20 thrashing calls", calls.Load())
	}
}

func TestMemoForgetsFailures(t *testing.T) {
	m := new(Graph).Memo(memoOwnerA{})
	boom := errors.New("boom")
	if _, reused, err := m.Do("f", 1, func() (any, error) { return nil, boom }); !errors.Is(err, boom) || reused {
		t.Fatalf("err %v, reused %v", err, reused)
	}
	if len(m.flights) != 0 {
		t.Fatal("the failure was remembered")
	}
	if v, reused, err := m.Do("f", 1, func() (any, error) { return 7, nil }); v != 7 || reused || err != nil {
		t.Fatalf("after a failure: %v, reused %v, err %v", v, reused, err)
	}

	// A compute that panics releases whoever waits on it with an error,
	// and leaves nothing behind. (The waiter may also arrive after the
	// panic and compute for itself; both are correct.)
	started := make(chan struct{})
	waiter := make(chan error, 1)
	go func() {
		<-started
		_, _, err := m.Do("f", 2, func() (any, error) { return "the waiter's own", nil })
		waiter <- err
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the panic did not reach Do's caller")
			}
		}()
		_, _, _ = m.Do("f", 2, func() (any, error) {
			close(started)
			time.Sleep(5 * time.Millisecond)
			panic("compute panicked")
		})
	}()
	if err := <-waiter; err != nil && !errors.Is(err, errMemoAbandoned) {
		t.Fatalf("waiter saw %v", err)
	}
	if v, _, err := m.Do("f", 2, func() (any, error) { return "fresh", nil }); err != nil || v == nil {
		t.Fatalf("after a panic: %v, %v", v, err)
	}
}

// TestMemoSingleFlight: concurrent callers of one key share one compute,
// and exactly one of them is told the value is its own.
func TestMemoSingleFlight(t *testing.T) {
	m := new(Graph).Memo(memoOwnerA{})
	const callers = 16
	var (
		calls, reusedCount atomic.Int64
		wg                 sync.WaitGroup
		gate               = make(chan struct{})
	)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			v, reused, err := m.Do("f", "k", func() (any, error) {
				calls.Add(1)
				time.Sleep(5 * time.Millisecond)
				return "v", nil
			})
			if v != "v" || err != nil {
				t.Errorf("got %v, %v", v, err)
			}
			if reused {
				reusedCount.Add(1)
			}
		}()
	}
	close(gate)
	wg.Wait()
	if calls.Load() != 1 || reusedCount.Load() != callers-1 {
		t.Fatalf("%d computes, %d reuses for %d callers", calls.Load(), reusedCount.Load(), callers)
	}
}

// TestMemoReplacedFamilyFinishesItsFlights: a family replaced while one of
// its values is still being computed hands that value to the callers
// already waiting, and then is gone.
func TestMemoReplacedFamilyFinishesItsFlights(t *testing.T) {
	m := new(Graph).Memo(memoOwnerA{})
	started, release := make(chan struct{}), make(chan struct{})
	got := make(chan any, 1)
	go func() {
		v, _, _ := m.Do("old", 1, func() (any, error) {
			close(started)
			<-release
			return "old value", nil
		})
		got <- v
	}()
	<-started
	if v, _, _ := m.Do("new", 1, func() (any, error) { return "new value", nil }); v != "new value" {
		t.Fatalf("new family got %v", v)
	}
	close(release)
	if v := <-got; v != "old value" {
		t.Fatalf("old family's caller got %v", v)
	}
	if v, reused, _ := m.Do("new", 1, func() (any, error) { return "recomputed", nil }); v != "new value" || !reused {
		t.Fatalf("the finished old flight disturbed the new family: %v, reused %v", v, reused)
	}
}

// TestMemoDiesWithItsGraph: a remembered value is reachable only through
// the graph that remembers it.
func TestMemoDiesWithItsGraph(t *testing.T) {
	g := MustFromEdges(2, [][2]VertexID{{0, 1}})
	gone := make(chan struct{})
	func() {
		v := &struct{ payload [64]byte }{}
		runtime.SetFinalizer(v, func(any) { close(gone) })
		if _, _, err := g.Memo(memoOwnerA{}).Do("f", 1, func() (any, error) { return v, nil }); err != nil {
			t.Fatal(err)
		}
	}()
	runtime.GC()
	select {
	case <-gone:
		t.Fatal("the value was collected while its graph was alive")
	case <-time.After(20 * time.Millisecond):
	}
	runtime.KeepAlive(g)
	g = nil
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-gone:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the remembered value outlived its graph")
}
