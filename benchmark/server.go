package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// repoRoot is the checkout root as seen from the benchmark directory,
// which is the working directory of the harness and of its tests.
const repoRoot = ".."

// buildPredictd compiles the real cmd/predictd from the checkout's source
// into binDir and returns the binary's path.
func buildPredictd(binDir string) (string, error) {
	if _, err := os.Stat(filepath.Join(repoRoot, "cmd", "predictd")); err != nil {
		return "", fmt.Errorf("run from the benchmark directory of a full checkout: %w", err)
	}
	bin, err := filepath.Abs(filepath.Join(binDir, "predictd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/predictd")
	cmd.Dir = repoRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building predictd: %v\n%s", err, out)
	}
	return bin, nil
}

// servingFlags is the predictd flag line of every run: production
// defaults, with only the deployment settings given. In particular
// -batch-window stays 0.
func servingFlags(datasetDir, historyPath string) []string {
	return []string{"-addr", "127.0.0.1:0", "-dataset-dir", datasetDir, "-history", historyPath}
}

// checkServingFlags refuses a flag line that sets anything but the
// deployment settings: numbers measured under tuned serving flags are not
// the numbers a default predictd gives.
func checkServingFlags(args []string) error {
	allowed := map[string]bool{"-addr": true, "-dataset-dir": true, "-history": true}
	for _, a := range args {
		if name, _, _ := strings.Cut(a, "="); strings.HasPrefix(a, "-") && !allowed[name] {
			return fmt.Errorf("predictd flag %s is not a production default; the benchmark sets only -addr, -dataset-dir and -history", a)
		}
	}
	return nil
}

// server is one running predictd child.
type server struct {
	cmd     *exec.Cmd
	addr    string
	args    []string
	setup   time.Duration // exec to ready with every dataset loaded
	out     bytes.Buffer  // combined output, read after exit or on failure
	outMu   sync.Mutex
	scanned chan struct{} // closed when the output pipe reached EOF
}

// startServer execs predictd and returns once it is serving: /readyz is
// 200 (history warmed) and every registry dataset is loaded. The time
// from exec to that point is the server's setup time.
func startServer(bin string, args []string) (*server, error) {
	if err := checkServingFlags(args); err != nil {
		return nil, err
	}
	s := &server{args: args, scanned: make(chan struct{})}
	s.cmd = exec.Command(bin, args...)
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	s.cmd.Stdout, s.cmd.Stderr = pw, pw
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		pr.Close()
		pw.Close()
		return nil, err
	}
	pw.Close() // the child holds its own copy

	addrc := make(chan string, 1)
	go func() {
		defer close(s.scanned)
		defer pr.Close()
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			line := sc.Text()
			s.outMu.Lock()
			s.out.WriteString(line + "\n")
			s.outMu.Unlock()
			if i := strings.Index(line, "listening on "); i >= 0 && !strings.Contains(line, "pprof") {
				select {
				case addrc <- strings.TrimSpace(line[i+len("listening on "):]):
				default:
				}
			}
		}
	}()

	select {
	case s.addr = <-addrc:
	case <-s.scanned:
		s.cmd.Wait()
		return nil, fmt.Errorf("predictd exited before listening:\n%s", s.output())
	case <-time.After(60 * time.Second):
		s.kill()
		return nil, fmt.Errorf("predictd did not report its address:\n%s", s.output())
	}
	if err := s.makeReady(); err != nil {
		s.kill()
		return nil, fmt.Errorf("%w\n%s", err, s.output())
	}
	s.setup = time.Since(start)
	return s, nil
}

// makeReady waits for /readyz and loads every registry dataset.
func (s *server) makeReady() error {
	c, err := dial(s.addr)
	if err != nil {
		return err
	}
	defer c.close()
	deadline := time.Now().Add(60 * time.Second)
	for {
		status, _, err := c.get("/readyz")
		if err != nil {
			return fmt.Errorf("GET /readyz: %w", err)
		}
		if status == 200 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("predictd never became ready (last /readyz status %d)", status)
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, name := range allDatasets() {
		status, body, err := c.post("/datasets/"+name+"/load", nil)
		if err != nil || status != 200 {
			return fmt.Errorf("loading dataset %s: status %d, %v: %s", name, status, err, body)
		}
	}
	return nil
}

func (s *server) output() string {
	s.outMu.Lock()
	defer s.outMu.Unlock()
	return s.out.String()
}

// flagLine is the command line the child was started with.
func (s *server) flagLine() string { return "predictd " + strings.Join(s.args, " ") }

// stop sends SIGTERM and waits for the drain to finish and the output
// pipe to close; a child that does not exit is killed.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return err
	}
	done := make(chan error, 1)
	go func() {
		<-s.scanned
		done <- s.cmd.Wait()
	}()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("predictd exit: %w\n%s", err, s.output())
		}
		return nil
	case <-time.After(60 * time.Second):
		s.cmd.Process.Kill()
		<-done
		return fmt.Errorf("predictd did not exit on SIGTERM:\n%s", s.output())
	}
}

// kill ends the child at once and waits for it.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.scanned
	s.cmd.Wait()
}

// peakRSSMB is the child's resident-set high-water mark (VmHWM) in MB.
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// stats reads the numeric counters of GET /stats.
func (s *server) stats() (map[string]float64, error) {
	c, err := dial(s.addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	status, body, err := c.get("/stats")
	if err != nil || status != 200 {
		return nil, fmt.Errorf("GET /stats: status %d, %v", status, err)
	}
	var payload struct {
		Stats map[string]any `json:"stats"`
	}
	if err := json.Unmarshal(body, &payload); err != nil {
		return nil, fmt.Errorf("decoding /stats: %w", err)
	}
	out := make(map[string]float64)
	for k, v := range payload.Stats {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

// checkDefaultServing confirms from /stats that the child runs the
// default fit budget for this machine: a fit pool of GOMAXPROCS and a fit
// queue of four times that.
func checkDefaultServing(st map[string]float64) error {
	procs := float64(runtime.GOMAXPROCS(0))
	if st["pool_size"] != procs || st["fit_queue_cap"] != 4*procs {
		return fmt.Errorf("predictd is not serving with default flags: pool_size %v, fit_queue_cap %v, want %v and %v",
			st["pool_size"], st["fit_queue_cap"], procs, 4*procs)
	}
	return nil
}
