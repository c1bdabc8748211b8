package history

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"predict/internal/faultinject"
	"predict/internal/features"
)

// historyBytes builds a clean three-record JSONL file in memory.
func historyBytes(t *testing.T) []byte {
	t.Helper()
	ri := profiledRun(t)
	var buf bytes.Buffer
	err := Write(&buf,
		FromRun(ri, "d1", "actual", features.ModeCriticalShare),
		FromRun(ri, "d2", "sample", features.ModeCriticalShare),
		FromRun(ri, "d3", "actual", features.ModeCriticalShare),
	)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTruncateEveryOffset is the crash-safety property test: a valid
// JSONL history truncated at EVERY byte offset (any crash point during an
// append) must load all complete records and report — never fail on — the
// torn tail.
func TestTruncateEveryOffset(t *testing.T) {
	data := historyBytes(t)
	path := filepath.Join(t.TempDir(), "truncated.jsonl")
	for off := 0; off <= len(data); off++ {
		prefix := data[:off]
		if err := os.WriteFile(path, prefix, 0o644); err != nil {
			t.Fatal(err)
		}
		records, torn, err := LoadFile(path)
		if err != nil {
			t.Fatalf("offset %d: LoadFile failed: %v (truncation must never be fatal)", off, err)
		}
		// Expected outcome from the prefix shape: every newline-terminated
		// line is a complete record; a non-empty remainder is either the
		// final record minus its newline (valid JSON → loads) or a torn
		// fragment (→ reported).
		complete := bytes.Count(prefix, []byte{'\n'})
		remainder := prefix
		if i := bytes.LastIndexByte(prefix, '\n'); i >= 0 {
			remainder = prefix[i+1:]
		}
		wantRecords := complete
		wantTorn := false
		if len(remainder) > 0 {
			if json.Valid(remainder) {
				wantRecords++
			} else {
				wantTorn = true
			}
		}
		if len(records) != wantRecords {
			t.Fatalf("offset %d: loaded %d records, want %d", off, len(records), wantRecords)
		}
		if (torn != nil) != wantTorn {
			t.Fatalf("offset %d: torn = %v, want torn=%v", off, torn, wantTorn)
		}
		if torn != nil {
			if torn.Bytes != len(remainder) {
				t.Fatalf("offset %d: torn.Bytes = %d, want %d", off, torn.Bytes, len(remainder))
			}
			if torn.Offset != int64(off-len(remainder)) {
				t.Fatalf("offset %d: torn.Offset = %d, want %d", off, torn.Offset, off-len(remainder))
			}
			if torn.Err == nil || !strings.Contains(torn.String(), "torn trailing record") {
				t.Fatalf("offset %d: torn report incomplete: %v", off, torn)
			}
		}
	}
}

// TestInteriorCorruptionIsFatal pins the other half of the recovery rule:
// a corrupt record BEFORE the final line is not a crash signature and must
// fail the load, not be skipped silently.
func TestInteriorCorruptionIsFatal(t *testing.T) {
	data := historyBytes(t)
	lines := bytes.SplitAfter(data, []byte{'\n'})
	corrupt := bytes.Join([][]byte{lines[0], []byte("{broken\n"), lines[1]}, nil)
	path := filepath.Join(t.TempDir(), "corrupt.jsonl")
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadFile(path); err == nil {
		t.Fatal("interior corruption loaded without error")
	}
}

func TestLoadFileBlankLines(t *testing.T) {
	data := historyBytes(t)
	padded := append([]byte("\n"), data...)
	padded = append(padded, '\n', '\n')
	path := filepath.Join(t.TempDir(), "padded.jsonl")
	if err := os.WriteFile(path, padded, 0o644); err != nil {
		t.Fatal(err)
	}
	records, torn, err := LoadFile(path)
	if err != nil || torn != nil {
		t.Fatalf("blank-padded file: err=%v torn=%v", err, torn)
	}
	if len(records) != 3 {
		t.Fatalf("loaded %d records, want 3", len(records))
	}
}

func TestAppendFileSyncDurable(t *testing.T) {
	ri := profiledRun(t)
	path := filepath.Join(t.TempDir(), "durable.jsonl")
	rec := FromRun(ri, "d1", "actual", features.ModeCriticalShare)
	if err := AppendFileSync(path, rec); err != nil {
		t.Fatal(err)
	}
	records, torn, err := LoadFile(path)
	if err != nil || torn != nil || len(records) != 1 {
		t.Fatalf("after sync append: records=%d torn=%v err=%v", len(records), torn, err)
	}
}

// TestInjectedTornAppend drives the full crash story end to end: a fault
// schedule tears the second append mid-payload (a real partial write on
// disk), and LoadFile recovers the first record while reporting the tail.
func TestInjectedTornAppend(t *testing.T) {
	ri := profiledRun(t)
	path := filepath.Join(t.TempDir(), "torn.jsonl")
	errCrash := errors.New("injected crash")
	restore := faultinject.Enable(faultinject.NewInjector(1, faultinject.Rule{
		Point:        faultinject.PointHistoryAppend,
		From:         2,
		Count:        1,
		Err:          errCrash,
		PartialBytes: 25,
	}))
	defer restore()

	if err := AppendFileSync(path, FromRun(ri, "d1", "actual", features.ModeCriticalShare)); err != nil {
		t.Fatalf("first append: %v", err)
	}
	err := AppendFileSync(path, FromRun(ri, "d2", "actual", features.ModeCriticalShare))
	if !errors.Is(err, errCrash) {
		t.Fatalf("second append err = %v, want injected crash", err)
	}
	records, torn, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile after torn append: %v", err)
	}
	if len(records) != 1 || records[0].Dataset != "d1" {
		t.Fatalf("recovered %d records (want 1: d1): %+v", len(records), records)
	}
	if torn == nil || torn.Bytes != 25 {
		t.Fatalf("torn = %v, want 25-byte fragment reported", torn)
	}
}

// TestInjectedAppendErrorNothingWritten: a pure error fault (no partial
// bytes) models failure before any byte reaches the disk.
func TestInjectedAppendErrorNothingWritten(t *testing.T) {
	ri := profiledRun(t)
	path := filepath.Join(t.TempDir(), "never.jsonl")
	restore := faultinject.Enable(faultinject.NewInjector(1, faultinject.Rule{
		Point: faultinject.PointHistoryAppend,
		Err:   errors.New("disk full"),
	}))
	defer restore()
	if err := AppendFileSync(path, FromRun(ri, "d1", "actual", features.ModeCriticalShare)); err == nil {
		t.Fatal("injected append error swallowed")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("file exists after failed-before-write append (stat err=%v)", err)
	}
}

func TestInjectedLoadError(t *testing.T) {
	ri := profiledRun(t)
	path := filepath.Join(t.TempDir(), "h.jsonl")
	if err := AppendFileSync(path, FromRun(ri, "d1", "actual", features.ModeCriticalShare)); err != nil {
		t.Fatal(err)
	}
	errIO := errors.New("injected read error")
	restore := faultinject.Enable(faultinject.NewInjector(1, faultinject.Rule{
		Point: faultinject.PointHistoryLoad,
		Err:   errIO,
	}))
	defer restore()
	if _, _, err := LoadFile(path); !errors.Is(err, errIO) {
		t.Fatalf("LoadFile err = %v, want injected error", err)
	}
}
