// Package crashtest is the process-level crash/soak harness: it builds
// the real predictd binary, drives it with seeded traffic over real TCP,
// kills it for real (SIGKILL scheduled by fault injection inside the
// binary, at points chosen to be maximally inconvenient — mid-append,
// mid-compaction, mid-fit), restarts it, and asserts the warm-started
// model set is exactly what the checkpoint log promised.
//
// Everything the in-process chaos suite cannot prove lives here: that
// deferred cleanups, atexit flushes and graceful-anything contribute
// nothing to crash consistency — the process dies with SIGKILL, the next
// process reads only what hit the kernel, and that must be enough.
//
// The harness needs no external dependencies: the binary is built with
// the already-present Go toolchain, traffic is net/http, the kill comes
// from the process itself (faultinject.RaiseKill via PREDICT_FAULTS), and
// the oracle is the history file read back with internal/history.
package crashtest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"predict/internal/history"
)

// build caches the compiled binary across the package's tests: one
// `go build` per test process, not per test.
var build struct {
	once sync.Once
	path string
	err  error
}

// BinaryPath builds cmd/predictd once and returns the binary's path.
func BinaryPath(t *testing.T) string {
	t.Helper()
	build.once.Do(func() {
		root, err := moduleRoot()
		if err != nil {
			build.err = err
			return
		}
		dir, err := os.MkdirTemp("", "crashtest-bin-*")
		if err != nil {
			build.err = err
			return
		}
		build.path = filepath.Join(dir, "predictd")
		cmd := exec.Command("go", "build", "-o", build.path, "./cmd/predictd")
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			build.err = fmt.Errorf("building predictd: %v\n%s", err, out)
		}
	})
	if build.err != nil {
		t.Fatal(build.err)
	}
	return build.path
}

func moduleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %w", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("not inside a module (GOMOD=%q)", gomod)
	}
	return filepath.Dir(gomod), nil
}

// lockedBuffer collects the child's combined output for failure dumps.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) WriteLine(line string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf.WriteString(line)
	b.buf.WriteByte('\n')
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// Server is one running predictd process under harness control.
type Server struct {
	t     *testing.T
	cmd   *exec.Cmd
	Addr  string
	out   *lockedBuffer
	waitc chan error
}

// Start launches the binary on a kernel-chosen port (-addr 127.0.0.1:0),
// with extra flags and environment (e.g. PREDICT_FAULTS schedules), and
// blocks until the serve listener's "listening on" line reports the bound
// address — or the process dies first, which fails the test with its
// output. The process is SIGKILLed at test cleanup if still running.
func Start(t *testing.T, args []string, env ...string) *Server {
	t.Helper()
	s := &Server{t: t, out: &lockedBuffer{}, waitc: make(chan error, 1)}
	s.cmd = exec.Command(BinaryPath(t), append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	s.cmd.Env = append(os.Environ(), env...)

	// A hand-made pipe instead of StderrPipe: cmd.Wait must not race the
	// scanner goroutine for the pipe's lifetime, and EOF must come from
	// the child's death alone.
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	s.cmd.Stdout = pw
	s.cmd.Stderr = pw
	if err := s.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	pw.Close() // the child holds its own copy
	t.Cleanup(func() {
		s.cmd.Process.Kill()
		<-s.waitc
	})

	addrc := make(chan string, 1)
	scanned := make(chan struct{}) // closed once the scanner has read the pipe to EOF
	go func() {
		defer close(scanned)
		defer pr.Close()
		sc := bufio.NewScanner(pr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			s.out.WriteLine(line)
			if !sent && !strings.Contains(line, "pprof") {
				if i := strings.Index(line, "listening on "); i >= 0 {
					addrc <- strings.TrimSpace(line[i+len("listening on "):])
					sent = true
				}
			}
		}
	}()
	go func() {
		// The exit is reported only after the scanner drained the pipe:
		// otherwise Output() right after WaitExit races the child's last
		// lines (the drain log's "persisted N model(s)").
		err := s.cmd.Wait()
		<-scanned
		s.waitc <- err
	}()

	select {
	case s.Addr = <-addrc:
	case err := <-s.waitc:
		s.waitc <- err // keep the channel readable for cleanup
		t.Fatalf("predictd exited before listening: %v\n%s", err, s.out.String())
	case <-time.After(30 * time.Second):
		t.Fatalf("predictd did not report its address\n%s", s.out.String())
	}
	return s
}

// URL is the server's base URL.
func (s *Server) URL() string { return "http://" + s.Addr }

// Output is everything the process wrote so far.
func (s *Server) Output() string { return s.out.String() }

// WaitExit blocks until the process exits and returns cmd.Wait's error.
func (s *Server) WaitExit(timeout time.Duration) error {
	s.t.Helper()
	select {
	case err := <-s.waitc:
		s.waitc <- err
		return err
	case <-time.After(timeout):
		s.t.Fatalf("predictd still running after %v\n%s", timeout, s.Output())
		return nil
	}
}

// ExpectKilled asserts the process died by SIGKILL — the scheduled crash
// actually struck, rather than the process exiting some polite way.
func (s *Server) ExpectKilled(timeout time.Duration) {
	s.t.Helper()
	err := s.WaitExit(timeout)
	ee, ok := err.(*exec.ExitError)
	if !ok {
		s.t.Fatalf("expected SIGKILL death, got exit err %v\n%s", err, s.Output())
	}
	ws, ok := ee.Sys().(syscall.WaitStatus)
	if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		s.t.Fatalf("expected SIGKILL death, got %v\n%s", ee, s.Output())
	}
}

// GracefulStop sends SIGTERM and asserts a clean (exit 0) drain.
func (s *Server) GracefulStop(timeout time.Duration) {
	s.t.Helper()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.t.Fatalf("SIGTERM: %v", err)
	}
	if err := s.WaitExit(timeout); err != nil {
		s.t.Fatalf("drain exit: %v\n%s", err, s.Output())
	}
}

// WaitReady polls /readyz until 200.
func (s *Server) WaitReady(timeout time.Duration) {
	s.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(s.URL() + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	s.t.Fatalf("server never became ready\n%s", s.Output())
}

// PredictRequest is the cheap request shape the harness drives: a tiny
// generated Wiki graph whose cold fit takes milliseconds. SampleSeed
// varies the model key, so each seed is one distinct checkpointed model.
func PredictRequest(sampleSeed uint64) map[string]any {
	return map[string]any{
		"dataset":         "Wiki",
		"scale":           0.02,
		"algorithm":       "PR",
		"epsilon":         0.01,
		"ratio":           0.15,
		"training_ratios": []float64{0.1, 0.2},
		"sample_seed":     sampleSeed,
	}
}

// Predict posts one prediction and returns the HTTP status. A transport
// error (connection reset, EOF) returns 0 — the expected signature of
// the process dying mid-request.
func (s *Server) Predict(sampleSeed uint64) int {
	s.t.Helper()
	body, err := json.Marshal(PredictRequest(sampleSeed))
	if err != nil {
		s.t.Fatal(err)
	}
	resp, err := http.Post(s.URL()+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0
	}
	return resp.StatusCode
}

// Models returns the server's cached model keys as a set.
func (s *Server) Models() map[string]bool {
	s.t.Helper()
	resp, err := http.Get(s.URL() + "/models")
	if err != nil {
		s.t.Fatalf("/models: %v\n%s", err, s.Output())
	}
	defer resp.Body.Close()
	var out struct {
		Models []struct {
			Key string `json:"key"`
		} `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		s.t.Fatalf("decoding /models: %v", err)
	}
	keys := make(map[string]bool, len(out.Models))
	for _, m := range out.Models {
		keys[m.Key] = true
	}
	return keys
}

// Stats fetches and decodes the /stats counters.
func (s *Server) Stats() map[string]json.RawMessage {
	s.t.Helper()
	resp, err := http.Get(s.URL() + "/stats")
	if err != nil {
		s.t.Fatalf("/stats: %v\n%s", err, s.Output())
	}
	defer resp.Body.Close()
	var out struct {
		Stats map[string]json.RawMessage `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		s.t.Fatalf("decoding /stats: %v", err)
	}
	return out.Stats
}

// StatInt reads one integer counter out of a Stats snapshot.
func StatInt(t *testing.T, stats map[string]json.RawMessage, field string) int64 {
	t.Helper()
	raw, ok := stats[field]
	if !ok {
		t.Fatalf("/stats has no %q field", field)
	}
	var v int64
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("stats field %q = %s: %v", field, raw, err)
	}
	return v
}

// StatFloat reads one float counter out of a Stats snapshot.
func StatFloat(t *testing.T, stats map[string]json.RawMessage, field string) float64 {
	t.Helper()
	raw, ok := stats[field]
	if !ok {
		t.Fatalf("/stats has no %q field", field)
	}
	var v float64
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("stats field %q = %s: %v", field, raw, err)
	}
	return v
}

// CheckpointedModels is the crash-consistency oracle: the model keys a
// warm start MUST reconstruct from the history file — the newest complete
// record per key, with any torn tail (the interrupted append the crash
// left behind) excluded, exactly as the service's loader excludes it.
func CheckpointedModels(t *testing.T, path string) map[string]bool {
	t.Helper()
	records, _, err := history.LoadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return map[string]bool{}
		}
		t.Fatalf("reading checkpoint log %s: %v", path, err)
	}
	keys := make(map[string]bool)
	for _, r := range records {
		if r.Model != nil {
			keys[r.Model.Key] = true
		}
	}
	return keys
}

// SameKeySet asserts two model-key sets are identical.
func SameKeySet(t *testing.T, got, want map[string]bool, context string) {
	t.Helper()
	for k := range want {
		if !got[k] {
			t.Errorf("%s: missing model %q", context, k)
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("%s: unexpected model %q", context, k)
		}
	}
}

// ChaosSeed is the harness's PREDICT_CHAOS_SEED convention (default 1),
// shared with the in-process chaos suite so a CI seed reproduces both.
func ChaosSeed(t *testing.T) uint64 {
	t.Helper()
	v := os.Getenv("PREDICT_CHAOS_SEED")
	if v == "" {
		return 1
	}
	var seed uint64
	if _, err := fmt.Sscanf(v, "%d", &seed); err != nil {
		t.Fatalf("PREDICT_CHAOS_SEED=%q: %v", v, err)
	}
	return seed
}
