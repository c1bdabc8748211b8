// Package faultinject is the deterministic fault-injection harness the
// chaos suite and the crash harness drive the system with.
//
// Cloud runtimes are dominated by infrastructure noise — slow disks,
// transient I/O errors, failed tasks — yet code paths that "cannot fail"
// in tests fail constantly in production. This package lets a test (or
// the crash harness, through predictd's PREDICT_FAULTS) declare a seeded,
// schedule-based plan of failures and replay it bit-identically: every
// instrumented code path calls Fire(point) at its entry, and the active
// Injector decides — by hit count, by period, or by seeded coin flip —
// whether that particular hit observes an injected error, an injected
// latency, or a partial (torn) write.
//
// The disabled path is the contract that lets the injection points live
// on production code paths at all: when no Injector is enabled (the
// default, and the only state outside tests), Fire is one atomic pointer
// load and a nil return — no locks, no allocations, no behavior change.
// TestDisabledFireAllocs holds that to zero allocations, and the
// allocation pins and golden fingerprints of the instrumented packages
// run against exactly this disabled build.
//
// Determinism: an Injector's schedule depends only on its seed, its rules
// and the order of Fire calls. Single-threaded replays are bit-identical;
// concurrent replays are per-point deterministic in aggregate (the hit
// counter is taken under the injector lock). Seeds come from the chaos
// suite's PREDICT_CHAOS_SEED, so a failing schedule is reproducible from
// the CI log alone.
package faultinject

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// The instrumented injection points. Each names the production code path
// that calls Fire with it; injecting anywhere else is a no-op.
const (
	// PointGraphLoadFile fires at graph.LoadFile's entry (the registry's
	// text/snapshot load path).
	PointGraphLoadFile = "graph.load_file"
	// PointGraphReadSnapshot fires at graph.ReadSnapshotFile.
	PointGraphReadSnapshot = "graph.read_snapshot"
	// PointGraphOpenSnapshot fires at graph.OpenSnapshot (the mmap-with-
	// fallback policy layer).
	PointGraphOpenSnapshot = "graph.open_snapshot"
	// PointHistoryAppend fires inside history append; PartialBytes rules
	// produce a real torn record on disk (a simulated crash mid-append).
	PointHistoryAppend = "history.append"
	// PointHistoryCompact fires inside history.CompactFile, after the
	// compacted temp file is durable but before the rename makes it the
	// log — the window where a crash must leave the old log intact.
	PointHistoryCompact = "history.compact"
	// PointHistoryLoad fires at history.LoadFile's entry.
	PointHistoryLoad = "history.load"
	// PointServiceFit fires at the service's cold-fit path, before the
	// sample pipelines run — the hook the breaker chaos tests trip.
	PointServiceFit = "service.fit"
)

// Fault is what an instrumented call site observes when a rule fires.
// Sites interpret the fields they can honor: every site honors Delay and
// Err; only write sites honor PartialBytes; sites on the durability path
// honor Kill.
type Fault struct {
	// Err, when non-nil, is returned by the instrumented operation after
	// Delay (and, for write points, after the partial write).
	Err error
	// Delay is slept before the operation proceeds or fails.
	Delay time.Duration
	// PartialBytes, when > 0 at a write point, persists only that many
	// bytes of the payload before failing — a torn write.
	PartialBytes int
	// Kill, when true, terminates the process with SIGKILL at the point's
	// most interesting moment (after a partial write lands, before a
	// compaction rename, at a fit's start) — the crash harness's way of
	// dying mid-operation with no deferred cleanup, no flushes, no
	// graceful anything. Only the process-level crash harness schedules
	// kills; in-process tests use Err.
	Kill bool
}

// Sleep applies the fault's injected latency. Call sites without a
// context use it directly; it is a no-op for pure error faults.
func (f *Fault) Sleep() {
	if f != nil && f.Delay > 0 {
		time.Sleep(f.Delay)
	}
}

// SleepContext applies the fault's injected latency but returns early if
// ctx is done — call sites with a cancelable context (the fit path) use
// it so an injected stall still honors shutdown.
func (f *Fault) SleepContext(ctx context.Context) {
	if f == nil || f.Delay <= 0 {
		return
	}
	t := time.NewTimer(f.Delay)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// MaybeKill terminates the process with SIGKILL if the fault asks for it,
// and never returns in that case. Call sites place it at the exact moment
// the scheduled crash should strike.
func (f *Fault) MaybeKill() {
	if f != nil && f.Kill {
		RaiseKill()
	}
}

// Rule is one line of an injection schedule: when Point is hit, fire on
// the selected hits with the given fault.
type Rule struct {
	// Point selects the injection point this rule applies to.
	Point string
	// From/Count select a 1-based window of hits: fire on hits
	// [From, From+Count). From 0 means 1; Count 0 means unbounded.
	From  int
	Count int
	// Period, when > 0, applies the window cyclically: the rule fires on
	// hit h when ((h-1) mod Period)+1 falls inside [From, From+Count).
	// "Fail 2 of every 3 attempts" is {From: 1, Count: 2, Period: 3}.
	Period int
	// Prob, when > 0, additionally gates each in-window hit on a seeded
	// coin flip with this probability — the same seed replays the same
	// flips in the same Fire order.
	Prob float64
	// The fault to inject when the rule fires.
	Err          error
	Delay        time.Duration
	PartialBytes int
	Kill         bool
}

// matches reports whether the rule fires on the point's hit number h
// (1-based). The caller holds the injector lock and supplies the flip.
func (r *Rule) matches(h int, flip func() float64) bool {
	if r.Period > 0 {
		h = (h-1)%r.Period + 1
	}
	from := r.From
	if from <= 0 {
		from = 1
	}
	if h < from {
		return false
	}
	if r.Count > 0 && h >= from+r.Count {
		return false
	}
	if r.Prob > 0 && flip() >= r.Prob {
		return false
	}
	return true
}

// Injector holds one seeded fault schedule plus its replay state (per-
// point hit and fire counters). Safe for concurrent use; the disabled
// global path never touches it.
type Injector struct {
	mu    sync.Mutex
	rng   uint64
	rules []Rule
	hits  map[string]int
	fired map[string]int
}

// NewInjector returns an injector replaying the given rules under seed.
func NewInjector(seed uint64, rules ...Rule) *Injector {
	return &Injector{
		rng:   seed,
		rules: rules,
		hits:  make(map[string]int),
		fired: make(map[string]int),
	}
}

// splitmix64 is the step function behind the seeded coin flips — tiny,
// deterministic and plenty for schedule decorrelation.
func (in *Injector) next() uint64 {
	in.rng += 0x9e3779b97f4a7c15
	z := in.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (in *Injector) flip() float64 {
	return float64(in.next()>>11) / float64(1<<53)
}

// fire records one hit at point and returns the fault of the first
// matching rule, or nil.
func (in *Injector) fire(point string) *Fault {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.hits[point]++
	h := in.hits[point]
	for i := range in.rules {
		r := &in.rules[i]
		if r.Point != point || !r.matches(h, in.flip) {
			continue
		}
		in.fired[point]++
		return &Fault{Err: r.Err, Delay: r.Delay, PartialBytes: r.PartialBytes, Kill: r.Kill}
	}
	return nil
}

// Hits reports how many times point has been reached (fired or not).
func (in *Injector) Hits(point string) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.hits[point]
}

// Fired reports how many faults have been injected at point.
func (in *Injector) Fired(point string) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired[point]
}

// String summarizes the injector's replay state for test failure output.
func (in *Injector) String() string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return fmt.Sprintf("faultinject: %d rules, hits=%v fired=%v", len(in.rules), in.hits, in.fired)
}

// active is the process-wide injector hook. Nil (the default and the only
// production state) disables injection entirely: Fire is then one atomic
// load. Tests enable an injector for a scope and restore on exit.
var active atomic.Pointer[Injector]

// Enable installs in as the process-wide injector and returns a restore
// function that reinstates the previous one. Tests must defer the
// restore; overlapping enables in parallel tests are the caller's
// responsibility (the chaos suite runs its injected tests serially).
func Enable(in *Injector) (restore func()) {
	prev := active.Swap(in)
	return func() { active.Store(prev) }
}

// Fire is the instrumented call sites' entry: it returns the fault to
// apply at point, or nil. With no injector enabled this is a single
// atomic load — zero allocations, zero behavior change — which is what
// lets it live on production hot paths under the CI alloc gates.
func Fire(point string) *Fault {
	in := active.Load()
	if in == nil {
		return nil
	}
	return in.fire(point)
}
