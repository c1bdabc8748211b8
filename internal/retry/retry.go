// Package retry is the service's transient-failure policy: bounded,
// context-aware, jittered exponential backoff.
//
// The Lakehouse-variance and runtime-variation studies (PAPERS.md) put
// numbers on what operators know: a large share of cloud I/O failures are
// transient — a slow or briefly erroring disk, an interrupted syscall, a
// file being replaced under a reader. Retrying those immediately turns a
// blip into a failed request; retrying them forever turns a dead disk
// into an outage. A Policy bounds both directions: a fixed number of
// attempts, exponentially spaced with jitter (so concurrent retries
// decorrelate instead of stampeding), each sleep abandoned as soon as the
// caller's context expires.
//
// Not every error deserves a retry. Callers pass a classifier; the
// conventional one is IsTransient, which recognizes errors explicitly
// marked Transient (fault injection, wrappers that know their cause) and
// the handful of OS error classes that are transient by nature (timeouts,
// EINTR/EAGAIN/EIO/EBUSY). Corruption, validation failures and not-found
// are permanent: retrying them burns latency to reach the same answer.
package retry

import (
	"context"
	"errors"
	"os"
	"sync/atomic"
	"syscall"
	"time"
)

// Policy bounds and spaces retries of one operation. The zero value
// retries nothing (one attempt). The spacing has no defaults of its own:
// the caller that knows what it is waiting for names the delays, and a
// Policy with Attempts alone retries without waiting.
type Policy struct {
	// Attempts is the total number of tries, including the first; values
	// below 1 mean 1 (no retry).
	Attempts int
	// BaseDelay is the backoff before the first retry; it doubles before
	// each later one.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth: no backoff exceeds it.
	MaxDelay time.Duration
	// OnRetry, when set, observes every retry decision: the attempt that
	// failed (1-based), its error, and the sleep about to be taken. The
	// service hangs its /stats retry counter here.
	OnRetry func(attempt int, err error, sleep time.Duration)
}

// jitter is the randomized fraction of every backoff: the sleep is
// delay * (1 - jitter + jitter*u) for a uniform u in [0,1), so it lies in
// [delay/2, delay] — enough to decorrelate concurrent retriers without
// making the worst case unpredictable.
const jitter = 0.5

// doSeq decorrelates the jitter streams of concurrent Do calls.
var doSeq atomic.Uint64

// Do runs op up to p.Attempts times, sleeping a jittered exponential
// backoff between attempts, and returns the last error (nil on success).
// A retry happens only when retryable reports the error transient (a nil
// retryable retries everything) and ctx is still live; sleeps are cut
// short by ctx, in which case Do returns the ctx error wrapped over the
// op's last error so callers can distinguish "gave up" from "kept
// failing".
func (p Policy) Do(ctx context.Context, retryable func(error) bool, op func() error) error {
	seed := doSeq.Add(1) * 0x9e3779b97f4a7c15
	delay := min(p.BaseDelay, p.MaxDelay)
	var err error
	for attempt := 1; ; attempt++ {
		if err = op(); err == nil {
			return nil
		}
		if attempt >= p.Attempts {
			return err
		}
		if retryable != nil && !retryable(err) {
			return err
		}
		seed = splitmix64(seed)
		u := float64(seed>>11) / float64(1<<53)
		sleep := time.Duration(float64(delay) * (1 - jitter + jitter*u))
		if p.OnRetry != nil {
			p.OnRetry(attempt, err, sleep)
		}
		select {
		case <-time.After(sleep):
		case <-ctx.Done():
			return errors.Join(ctx.Err(), err)
		}
		delay = min(2*delay, p.MaxDelay)
	}
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// transientError marks an error as transient for IsTransient.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Transient marks err as transient: IsTransient reports true for it and
// anything wrapping it. Fault injection and wrappers that know their
// failure is environmental (not semantic) use it to opt into retries.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err is worth retrying: explicitly marked
// Transient, an I/O timeout, or one of the OS error classes that are
// transient by nature (interrupted syscall, resource briefly unavailable,
// I/O error, device busy). Not-found, permission, corruption and
// validation errors all report false — retrying them reproduces the same
// failure at added latency.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	var te *transientError
	if errors.As(err, &te) {
		return true
	}
	if os.IsTimeout(err) {
		return true
	}
	return errors.Is(err, syscall.EINTR) ||
		errors.Is(err, syscall.EAGAIN) ||
		errors.Is(err, syscall.EIO) ||
		errors.Is(err, syscall.EBUSY)
}
