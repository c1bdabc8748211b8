package retry

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"syscall"
	"testing"
)

var errFlaky = errors.New("flaky")

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
