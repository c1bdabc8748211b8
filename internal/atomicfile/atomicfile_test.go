package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

// requireOnly asserts path holds want and is the only entry of its
// directory: a rewrite, published or abandoned, leaves no temp file.
func requireOnly(t *testing.T, path, want string) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("%s holds %q, want %q", path, got, want)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %v, want only %s", entries, filepath.Base(path))
	}
}

func TestReplacePublishesWithMode0644(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	renamed := false
	if err := Replace(path, writeString("new"), func() error { renamed = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !renamed {
		t.Error("beforeRename did not run")
	}
	requireOnly(t, path, "new")
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := info.Mode().Perm(); got != 0o644 {
		t.Errorf("mode %v, want -rw-r--r--", got)
	}
}

// TestReplaceFailureKeepsOldFile: a failed write or a refusing
// beforeRename abandons the rewrite, and the old contents stay whole.
func TestReplaceFailureKeepsOldFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := Replace(path, writeString("old"), nil); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	failingWrite := func(w io.Writer) error {
		if _, err := io.WriteString(w, "partial"); err != nil {
			return err
		}
		return boom
	}
	if err := Replace(path, failingWrite, nil); !errors.Is(err, boom) {
		t.Fatalf("failed write: err %v, want %v", err, boom)
	}
	requireOnly(t, path, "old")
	if err := Replace(path, writeString("new"), func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("refused rename: err %v, want %v", err, boom)
	}
	requireOnly(t, path, "old")
}
