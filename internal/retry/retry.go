// Package retry tells a failure worth retrying from one that is not.
//
// The service does not retry a failed dataset load itself: it answers at
// once, and the status says whether a retry could help. A transient
// failure (IsTransient) is a 503 with Retry-After, so a client or load
// balancer tries again, here or on another replica; anything else is a
// 500, because the next attempt would reach the same answer.
//
// IsTransient recognizes errors explicitly marked Transient (fault
// injection, wrappers that know their cause) and the handful of OS error
// classes that are transient by nature (timeouts, EINTR/EAGAIN/EIO/
// EBUSY). Corruption, validation failures and not-found are permanent.
package retry

import (
	"errors"
	"os"
	"syscall"
)

// transientError marks an error as transient for IsTransient.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Transient marks err as transient: IsTransient reports true for it and
// anything wrapping it. Fault injection and wrappers that know their
// failure is environmental (not semantic) use it to mark it retryable.
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
