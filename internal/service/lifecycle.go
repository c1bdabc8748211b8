// Lifecycle supervision: the Controller owns the serving listener, the
// optional pprof listener, and the supervised drain a SIGTERM triggers.
//
// The drain sequence is crash-only in spirit — every stage is safe to be
// interrupted by a SIGKILL, because continuous checkpointing already made
// each fitted model durable at fit time:
//
//  1. BeginDrain: /readyz flips to 503 "draining" so pollers pull the
//     process out of rotation; new prediction work is refused with 503 +
//     Connection: close; in-flight work keeps running.
//  2. The pprof listener closes — profiling must never hold a drain open.
//  3. http.Server.Shutdown waits for in-flight requests under the drain
//     deadline.
//  4. If the deadline passes with work still in flight, HardStop cancels
//     the lifecycle context: detached cold fits abort, release their pool
//     slots, and answer their waiting requests 503; a short grace period
//     lets those responses flush before the connections close.
package service

import (
	"context"
	"log"
	"net"
	"net/http"
	"time"
)

// hardStopGrace bounds how long the 503 responses a HardStop produces get
// to flush before Drain force-closes their connections.
const hardStopGrace = 2 * time.Second

// ControllerConfig parameterizes a Controller.
type ControllerConfig struct {
	// Addr is the serving listen address. ":0" and "127.0.0.1:0" work; the
	// bound address is logged ("listening on ...") and exposed via Addr(),
	// which is how the crash harness finds a free-port server.
	Addr string
	// PprofAddr, when non-empty, serves PprofHandler on its own listener —
	// never on the serving address. Closed first during drain.
	PprofAddr string
	// PprofHandler is the handler for PprofAddr (callers pass
	// http.DefaultServeMux after blank-importing net/http/pprof, keeping
	// the profiling registration out of this package).
	PprofHandler http.Handler
	// DrainTimeout bounds how long a drain waits for in-flight requests
	// before canceling their fits; zero selects 10s.
	DrainTimeout time.Duration
	// Logf receives progress lines; nil selects log.Printf.
	Logf func(format string, args ...any)
}

func (c ControllerConfig) withDefaults() ControllerConfig {
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// Controller runs a Service's HTTP listeners and supervises their
// shutdown. Create with StartController, wait on Err, stop with Drain.
type Controller struct {
	svc      *Service
	cfg      ControllerConfig
	srv      *http.Server
	ln       net.Listener
	pprofSrv *http.Server
	pprofLn  net.Listener
	errc     chan error
}

// StartController binds the listeners and begins serving. The returned
// controller is already live: Addr() is routable and Err() will deliver
// any serve failure. A pprof listener that cannot bind is logged and
// skipped — profiling must not keep the service down.
func StartController(svc *Service, cfg ControllerConfig) (*Controller, error) {
	cfg = cfg.withDefaults()
	c := &Controller{
		svc:  svc,
		cfg:  cfg,
		srv:  &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second},
		errc: make(chan error, 1),
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	c.ln = ln
	cfg.Logf("listening on %s", ln.Addr())
	go func() { c.errc <- c.srv.Serve(ln) }()

	if cfg.PprofAddr != "" && cfg.PprofHandler != nil {
		pln, err := net.Listen("tcp", cfg.PprofAddr)
		if err != nil {
			cfg.Logf("pprof listener: %v (profiling disabled)", err)
		} else {
			c.pprofSrv = &http.Server{Handler: cfg.PprofHandler, ReadHeaderTimeout: 10 * time.Second}
			c.pprofLn = pln
			cfg.Logf("pprof listening on %s", pln.Addr())
			go func() {
				if err := c.pprofSrv.Serve(pln); err != nil && err != http.ErrServerClosed {
					cfg.Logf("pprof listener: %v", err)
				}
			}()
		}
	}
	return c, nil
}

// Err delivers the serve loop's terminal error — http.ErrServerClosed
// after a drain, anything else is a real failure.
func (c *Controller) Err() <-chan error { return c.errc }

// Drain performs the supervised shutdown sequence described in the
// package comment. It returns nil when every in-flight request finished
// within the deadline, and context.DeadlineExceeded when HardStop had to
// cancel fits — callers log the difference but exit either way.
//
// The listener stays open for the whole drain window: new prediction work
// gets the application-level 503 + Connection: close (a TCP refusal would
// look like an outage, not a drain, to load balancers) and pollers keep
// reading /readyz and /stats until the last in-flight request is done.
// Only then does the listener close.
func (c *Controller) Drain() error {
	c.svc.BeginDrain()
	c.cfg.Logf("draining: refusing new work, waiting up to %s for in-flight requests", c.cfg.DrainTimeout)
	if c.pprofSrv != nil {
		// Profiling sessions must never hold a drain open, and a closed
		// pprof port is a cheap signal the process is on its way out.
		c.pprofSrv.Close()
	}
	deadline := time.Now().Add(c.cfg.DrainTimeout)
	for c.svc.ActiveWork() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	var err error
	if c.svc.ActiveWork() > 0 {
		// The deadline passed with work still in flight — almost always
		// requests waiting on cold fits. Cancel the fits through the
		// lifecycle context so they release their pool slots and answer
		// 503; the grace below lets those responses flush.
		c.cfg.Logf("drain deadline passed with %d request(s) in flight: canceling their fits", c.svc.ActiveWork())
		c.svc.HardStop()
		err = context.DeadlineExceeded
	}
	grace, cancel := context.WithTimeout(context.Background(), hardStopGrace)
	defer cancel()
	if serr := c.srv.Shutdown(grace); serr != nil {
		c.srv.Close()
	}
	if err == nil {
		c.cfg.Logf("drain complete: all in-flight requests finished")
	}
	return err
}
