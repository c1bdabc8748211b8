package faultinject

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

var errBoom = errors.New("boom")

func firePattern(in *Injector, point string, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if in.fire(point) != nil {
			b.WriteByte('X')
		} else {
			b.WriteByte('.')
		}
	}
	return b.String()
}

// enabled reports whether any injector is active.
func enabled() bool { return active.Load() != nil }

func TestDisabledFireIsNil(t *testing.T) {
	if enabled() {
		t.Fatal("injector enabled at test start")
	}
	if f := Fire(PointGraphLoadFile); f != nil {
		t.Fatalf("disabled Fire returned %v, want nil", f)
	}
}

func TestDisabledFireAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(1000, func() {
		if Fire(PointHistoryAppend) != nil {
			t.Fatal("unexpected fault")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled Fire allocates %.1f per call, want 0", allocs)
	}
}

func TestEnableRestore(t *testing.T) {
	in := NewInjector(1, Rule{Point: PointServiceFit, Err: errBoom})
	restore := Enable(in)
	if !enabled() {
		t.Fatal("no active injector after Enable")
	}
	f := Fire(PointServiceFit)
	if f == nil || f.Err != errBoom {
		t.Fatalf("Fire = %v, want fault with errBoom", f)
	}
	if Fire(PointGraphLoadFile) != nil {
		t.Fatal("unmatched point fired")
	}
	restore()
	if enabled() {
		t.Fatal("injector still active after restore")
	}
	if Fire(PointServiceFit) != nil {
		t.Fatal("Fire fired after restore")
	}
}

func TestEnableRestoresPrevious(t *testing.T) {
	a := NewInjector(1, Rule{Point: PointServiceFit, Err: errBoom})
	b := NewInjector(2)
	restoreA := Enable(a)
	restoreB := Enable(b)
	if Fire(PointServiceFit) != nil {
		t.Fatal("injector b should not fire")
	}
	restoreB()
	if f := Fire(PointServiceFit); f == nil {
		t.Fatal("injector a not restored")
	}
	restoreA()
	if enabled() {
		t.Fatal("injector still enabled after full unwind")
	}
}

func TestWindowMatching(t *testing.T) {
	cases := []struct {
		name string
		rule Rule
		want string
	}{
		{"always", Rule{}, "XXXXXXXXXX"},
		{"from3", Rule{From: 3}, "..XXXXXXXX"},
		{"from3count2", Rule{From: 3, Count: 2}, "..XX......"},
		{"first-only", Rule{Count: 1}, "X........."},
		{"two-of-three", Rule{From: 1, Count: 2, Period: 3}, "XX.XX.XX.X"},
		{"third-of-three", Rule{From: 3, Count: 1, Period: 3}, "..X..X..X."},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.rule.Point = "p"
			tc.rule.Err = errBoom
			in := NewInjector(7, tc.rule)
			if got := firePattern(in, "p", 10); got != tc.want {
				t.Fatalf("pattern = %s, want %s", got, tc.want)
			}
		})
	}
}

func TestProbDeterministic(t *testing.T) {
	pattern := func(seed uint64) string {
		in := NewInjector(seed, Rule{Point: "p", Prob: 0.5, Err: errBoom})
		return firePattern(in, "p", 64)
	}
	a, b := pattern(42), pattern(42)
	if a != b {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	c := pattern(43)
	if a == c {
		t.Fatalf("different seeds produced identical 64-hit schedule %s", a)
	}
	fired := strings.Count(a, "X")
	if fired < 16 || fired > 48 {
		t.Fatalf("prob 0.5 fired %d/64 times — flip distribution broken", fired)
	}
}

func TestProbZeroNeverFlips(t *testing.T) {
	// Prob 0 means "no coin flip", not "never fire": the window alone
	// decides, and the rng must not advance.
	in := NewInjector(9, Rule{Point: "p", Err: errBoom})
	before := in.rng
	in.fire("p")
	if in.rng != before {
		t.Fatal("rng advanced on a probability-free rule")
	}
}

func TestFirstMatchingRuleWins(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	in := NewInjector(1,
		Rule{Point: "p", From: 2, Err: errA},
		Rule{Point: "p", Err: errB},
	)
	if f := in.fire("p"); f.Err != errB {
		t.Fatalf("hit 1 fault = %v, want b (first rule out of window)", f.Err)
	}
	if f := in.fire("p"); f.Err != errA {
		t.Fatalf("hit 2 fault = %v, want a (earlier rule wins)", f.Err)
	}
}

func TestCounters(t *testing.T) {
	in := NewInjector(1, Rule{Point: "p", From: 2, Count: 1, Err: errBoom})
	for i := 0; i < 5; i++ {
		in.fire("p")
	}
	in.fire("q")
	if got := in.Hits("p"); got != 5 {
		t.Fatalf("Hits(p) = %d, want 5", got)
	}
	if got := in.Fired("p"); got != 1 {
		t.Fatalf("Fired(p) = %d, want 1", got)
	}
	if got := in.Hits("q"); got != 1 {
		t.Fatalf("Hits(q) = %d, want 1", got)
	}
	if got := in.Fired("q"); got != 0 {
		t.Fatalf("Fired(q) = %d, want 0", got)
	}
	if s := in.String(); !strings.Contains(s, "1 rules") {
		t.Fatalf("String() = %q, want rule count", s)
	}
}

func TestFaultFields(t *testing.T) {
	in := NewInjector(1, Rule{Point: "p", Err: errBoom, Delay: time.Millisecond, PartialBytes: 7})
	f := in.fire("p")
	if f.Err != errBoom || f.Delay != time.Millisecond || f.PartialBytes != 7 {
		t.Fatalf("fault = %+v, want all rule fields carried over", f)
	}
	start := time.Now()
	f.Sleep()
	if time.Since(start) < time.Millisecond {
		t.Fatal("Sleep returned before the injected delay elapsed")
	}
	var nilFault *Fault
	nilFault.Sleep() // must not panic
}

func TestConcurrentFire(t *testing.T) {
	// Aggregate determinism under concurrency: total hits and fires are
	// exact even when Fire races (the pattern order is not asserted).
	in := NewInjector(3, Rule{Point: "p", From: 1, Count: 1, Period: 2, Err: errBoom})
	restore := Enable(in)
	defer restore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				Fire("p")
			}
		}()
	}
	wg.Wait()
	if got := in.Hits("p"); got != 800 {
		t.Fatalf("Hits = %d, want 800", got)
	}
	if got := in.Fired("p"); got != 400 {
		t.Fatalf("Fired = %d, want 400 (every other hit)", got)
	}
}
