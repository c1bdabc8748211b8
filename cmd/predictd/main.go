// Command predictd serves PREDIcT predictions over HTTP: graphs are
// loaded once, fitted cost models are cached (LRU-bounded) and reused
// across requests, and the cache optionally persists through a history
// file so restarts skip the expensive sample-run pipeline.
//
// Usage:
//
//	predictd -addr :8080
//	predictd -addr :8080 -history models.jsonl      # warm + persist cache
//	predictd -dataset-dir ./datasets                # serve real graphs by name
//	predictd -dataset-dir ./datasets -mmap-datasets # zero-copy snapshots (datasets larger than RAM)
//	predictd -max-models 128 -timeout 120s -workers 16
//	predictd -fit-parallelism 8 -fit-timeout 2m     # cold-path budget
//	predictd -fit-queue-depth 8 -max-inflight 256   # admission control (shed past the bound)
//	predictd -pprof-addr 127.0.0.1:6060             # live profiling (off by default)
//	predictd -drain-timeout 10s                     # SIGTERM drain deadline before fits are canceled
//
// Fifteen flags: addresses, paths, capacities and timeouts of this host.
// The batch limit, blend threshold, Retry-After hint, circuit breaker
// and checkpoint growth factor are constants
// (DESIGN.md §10, "Constants, and why they are not flags").
//
// API (JSON; docs/API.md is the full reference):
//
//	POST /predict               {"dataset":"Wiki","algorithm":"PR","ratio":0.1}
//	POST /predict/batch         {"requests":[{...},{...}]}
//	POST /observe               {"model_key":"...","actual_seconds":123.4}  closed-loop feedback
//	GET  /datasets              registry inventory (with -dataset-dir)
//	POST /datasets/{name}/load  pre-load a registry dataset
//	GET  /models
//	GET  /stats
//	GET  /healthz               liveness (always 200; honest status field)
//	GET  /readyz                readiness (503 while dataset dir or history file is broken)
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the DefaultServeMux, served only on -pprof-addr
	"os"
	"os/signal"
	"syscall"
	"time"

	"predict/internal/bsp"
	"predict/internal/cluster"
	"predict/internal/faultinject"
	"predict/internal/service"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		maxModels = flag.Int("max-models", 64, "LRU bound on cached cost models")
		maxGraphs = flag.Int("max-graphs", 8, "LRU bound on cached dataset graphs")
		timeout   = flag.Duration("timeout", 60*time.Second, "default per-request timeout")
		workers   = flag.Int("workers", 0, "sample-cluster BSP workers (0 = default 8)")
		seed      = flag.Uint64("seed", 0, "cost-oracle noise seed")
		histFile  = flag.String("history", "", "JSON-lines file: warm the model cache at startup, persist it at shutdown")
		dataDir   = flag.String("dataset-dir", "", "dataset registry directory (<name>.snap snapshots, <name>.txt/.el/.edges edge lists)")
		mmapData  = flag.Bool("mmap-datasets", false, "serve .snap registry datasets from mmap'd pages (zero-copy, shared across processes; falls back to copy-in where unsupported); replace a served .snap by rename, never in place")
		fitPar    = flag.Int("fit-parallelism", 0, "shared fit-pool budget: sample pipelines running at once across all cold fits (0 = GOMAXPROCS)")
		fitTO     = flag.Duration("fit-timeout", 0, "per-fit deadline, detached from request timeouts (0 = default 5m)")
		fitQueue  = flag.Int("fit-queue-depth", 0, "cold fits outstanding before shedding with 503 (0 = 4x fit parallelism)")
		maxInfl   = flag.Int("max-inflight", 0, "hard bound on in-flight requests before shedding with 429 (0 = unlimited)")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060); empty disables profiling")
		drainTO   = flag.Duration("drain-timeout", 10*time.Second, "SIGTERM drain deadline: how long in-flight requests get before their fits are canceled")
	)
	flag.Parse()

	// Fault injection for the crash/soak harness: PREDICT_FAULTS schedules
	// deterministic faults (including self-SIGKILL) inside the real binary.
	// Unset means disabled with zero overhead; malformed means refuse to
	// start — a harness run with a typo'd schedule must not silently test
	// nothing.
	if on, err := faultinject.EnableFromEnv(); err != nil {
		log.Fatalf("predictd: %s: %v", faultinject.EnvVar, err)
	} else if on {
		log.Printf("predictd: fault injection enabled from %s", faultinject.EnvVar)
	}

	oracle := cluster.DefaultOracle()
	svc := service.New(service.Config{
		MaxModels:      *maxModels,
		MaxGraphs:      *maxGraphs,
		DefaultTimeout: *timeout,
		FitParallelism: *fitPar,
		FitTimeout:     *fitTO,
		FitQueueDepth:  *fitQueue,
		MaxInFlight:    *maxInfl,
		Cluster:        bsp.Config{Workers: *workers, Seed: *seed, Oracle: &oracle},
		DatasetDir:     *dataDir,
		MmapDatasets:   *mmapData,
		// The readiness probe (GET /readyz) watches the history file's
		// appendability when one is configured; every fitted model is
		// durably appended here at fit time.
		HistoryPath: *histFile,
	})

	// Warm the cache from history. If the warm-up could not read the whole
	// file, overwriting it would destroy the records that failed to load —
	// divert checkpoints and the shutdown snapshot to a sibling file and
	// leave the original for inspection.
	if *histFile != "" {
		warmed, skipped, err := svc.WarmFromHistory(*histFile)
		switch {
		case err != nil:
			svc.RedirectHistory(*histFile + ".recovered")
			log.Printf("predictd: warming from %s: %v; will persist to %s to preserve the original",
				*histFile, err, svc.HistoryPath())
		case skipped > 0:
			svc.RedirectHistory(*histFile + ".recovered")
			log.Printf("predictd: warmed %d model(s), skipped %d unreadable or out-of-range record(s); will persist to %s to preserve the original",
				warmed, skipped, svc.HistoryPath())
		case warmed > 0:
			log.Printf("predictd: warmed %d model(s) from %s", warmed, *histFile)
		}
		if svc.Stats().TornRecovered > 0 {
			// A crash tore the file's last record mid-append; the complete
			// records warmed fine and the next compaction or snapshot
			// rewrites the file whole, so no divert is needed — but the
			// operator should know the crash happened.
			log.Printf("predictd: recovered a torn trailing record in %s (interrupted append); complete records kept", *histFile)
		}
	}

	// Catch SIGINT/SIGTERM before the listener opens: a signal that
	// arrives once /readyz answers must drain, not kill the process.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)

	// The profiling listener is opt-in and separate from the service
	// listener, so profiling endpoints are never exposed on the serving
	// address. The blank net/http/pprof import registers its handlers on
	// the DefaultServeMux, which nothing else in this process serves; the
	// controller closes the listener first during drain.
	ctrl, err := service.StartController(svc, service.ControllerConfig{
		Addr:         *addr,
		PprofAddr:    *pprofAddr,
		PprofHandler: http.DefaultServeMux,
		DrainTimeout: *drainTO,
		Logf: func(format string, args ...any) {
			log.Printf("predictd: "+format, args...)
		},
	})
	if err != nil {
		log.Fatalf("predictd: %v", err)
	}

	// Serve until SIGINT/SIGTERM, then drain: readiness flips to draining,
	// new work is refused 503 + Connection: close, in-flight requests get
	// the drain deadline, and fits still running past it are canceled.
	select {
	case err := <-ctrl.Err():
		log.Fatalf("predictd: %v", err)
	case sig := <-sigc:
		log.Printf("predictd: %s: draining", sig)
	}
	if err := ctrl.Drain(); err != nil {
		log.Printf("predictd: drain: %v", err)
	}

	// The shutdown snapshot is an optimization, not the durability story —
	// checkpointing already persisted every model at fit time. It compacts
	// the log to exactly the live cache (LRU order preserved) in one pass.
	if path := svc.HistoryPath(); path != "" {
		if n, err := svc.SaveHistory(path); err != nil {
			log.Printf("predictd: persisting cache: %v", err)
		} else {
			fmt.Printf("predictd: persisted %d model(s) to %s\n", n, path)
		}
	}
}
