package retry

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"syscall"
	"testing"
	"time"
)

var errFlaky = errors.New("flaky")

// fastPolicy keeps test wall-clock negligible while preserving the
// attempt/backoff structure.
func fastPolicy(attempts int) Policy {
	return Policy{
		Attempts:  attempts,
		BaseDelay: 10 * time.Microsecond,
		MaxDelay:  100 * time.Microsecond,
	}
}

func TestDoSucceedsFirstTry(t *testing.T) {
	calls := 0
	err := fastPolicy(3).Do(context.Background(), IsTransient, func() error {
		calls++
		return nil
	})
	if err != nil || calls != 1 {
		t.Fatalf("err=%v calls=%d, want nil/1", err, calls)
	}
}

func TestDoRetriesTransient(t *testing.T) {
	calls := 0
	err := fastPolicy(5).Do(context.Background(), IsTransient, func() error {
		calls++
		if calls < 3 {
			return Transient(errFlaky)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do = %v, want success after retries", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

func TestDoStopsOnPermanent(t *testing.T) {
	permanent := errors.New("corrupt header")
	calls := 0
	err := fastPolicy(5).Do(context.Background(), IsTransient, func() error {
		calls++
		return permanent
	})
	if !errors.Is(err, permanent) {
		t.Fatalf("Do = %v, want the permanent error", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (no retry of permanent errors)", calls)
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	calls := 0
	err := fastPolicy(4).Do(context.Background(), IsTransient, func() error {
		calls++
		return Transient(errFlaky)
	})
	if !errors.Is(err, errFlaky) {
		t.Fatalf("Do = %v, want last transient error", err)
	}
	if calls != 4 {
		t.Fatalf("calls = %d, want 4", calls)
	}
}

func TestDoNilRetryableRetriesEverything(t *testing.T) {
	calls := 0
	_ = fastPolicy(3).Do(context.Background(), nil, func() error {
		calls++
		return errors.New("anything")
	})
	if calls != 3 {
		t.Fatalf("calls = %d, want 3 (nil classifier retries all)", calls)
	}
}

func TestDoContextCancelDuringSleep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{Attempts: 3, BaseDelay: time.Hour, MaxDelay: time.Hour}
	calls := 0
	done := make(chan error, 1)
	go func() {
		done <- p.Do(ctx, IsTransient, func() error {
			calls++
			return Transient(errFlaky)
		})
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Do = %v, want context.Canceled in chain", err)
		}
		if !errors.Is(err, errFlaky) {
			t.Fatalf("Do = %v, want op error preserved in chain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Do did not honor context cancellation during sleep")
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (cancelled before retry)", calls)
	}
}

func TestOnRetryObservesEachRetry(t *testing.T) {
	type obs struct {
		attempt int
		sleep   time.Duration
	}
	var seen []obs
	p := fastPolicy(4)
	p.OnRetry = func(attempt int, err error, sleep time.Duration) {
		if !errors.Is(err, errFlaky) {
			t.Fatalf("OnRetry err = %v, want errFlaky", err)
		}
		seen = append(seen, obs{attempt, sleep})
	}
	_ = p.Do(context.Background(), IsTransient, func() error { return Transient(errFlaky) })
	if len(seen) != 3 {
		t.Fatalf("OnRetry fired %d times, want 3 (attempts-1)", len(seen))
	}
	for i, o := range seen {
		if o.attempt != i+1 {
			t.Fatalf("OnRetry[%d].attempt = %d, want %d", i, o.attempt, i+1)
		}
		if o.sleep <= 0 {
			t.Fatalf("OnRetry[%d].sleep = %v, want > 0", i, o.sleep)
		}
	}
}

// TestBackoffGrowsAndCaps: the backoff doubles from BaseDelay up to
// MaxDelay, and jitter only ever shortens a sleep, by at most half — each
// sleep lies in [d/2, d] of the capped doubling sequence d.
func TestBackoffGrowsAndCaps(t *testing.T) {
	var sleeps []time.Duration
	p := Policy{
		Attempts:  6,
		BaseDelay: 10 * time.Microsecond,
		MaxDelay:  40 * time.Microsecond,
	}
	p.OnRetry = func(_ int, _ error, sleep time.Duration) { sleeps = append(sleeps, sleep) }
	_ = p.Do(context.Background(), nil, func() error { return errFlaky })
	want := []time.Duration{10, 20, 40, 40, 40}
	if len(sleeps) != len(want) {
		t.Fatalf("sleeps = %v, want %d entries", sleeps, len(want))
	}
	for i, d := range want {
		d *= time.Microsecond
		if sleeps[i] < d/2 || sleeps[i] > d {
			t.Fatalf("sleeps = %v: sleep %d is %v, want within [%v, %v] (exponential, capped, jittered)",
				sleeps, i, sleeps[i], d/2, d)
		}
	}
}

func TestIsTransient(t *testing.T) {
	timeout := &os.SyscallError{Syscall: "read", Err: syscall.ETIMEDOUT}
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"plain", errors.New("nope"), false},
		{"marked", Transient(errors.New("disk hiccup")), true},
		{"wrapped-marked", fmt.Errorf("load: %w", Transient(errFlaky)), true},
		{"eintr", &fs.PathError{Op: "read", Path: "x", Err: syscall.EINTR}, true},
		{"eagain", syscall.EAGAIN, true},
		{"eio", fmt.Errorf("append: %w", syscall.EIO), true},
		{"ebusy", syscall.EBUSY, true},
		{"timeout", timeout, true},
		{"not-exist", os.ErrNotExist, false},
		{"permission", os.ErrPermission, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := IsTransient(tc.err); got != tc.want {
				t.Fatalf("IsTransient(%v) = %v, want %v", tc.err, got, tc.want)
			}
		})
	}
}

func TestTransientNilPassthrough(t *testing.T) {
	if Transient(nil) != nil {
		t.Fatal("Transient(nil) should be nil")
	}
}

func TestTransientPreservesMessageAndUnwrap(t *testing.T) {
	err := Transient(errFlaky)
	if err.Error() != errFlaky.Error() {
		t.Fatalf("Error() = %q, want %q", err.Error(), errFlaky.Error())
	}
	if !errors.Is(err, errFlaky) {
		t.Fatal("Transient wrapper must unwrap to the cause")
	}
}
