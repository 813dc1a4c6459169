// Package serve is the long-lived query-serving daemon over published DP
// releases: analysts issue the paper's 3-orthotope range queries
// (Definition 3) over sanitised consumption matrices via HTTP. The
// routing is trivial — every answer is one O(1) prefix-sum lookup — so
// the package is really the robustness envelope around it: bounded-
// concurrency admission with load shedding (429 + Retry-After),
// per-request deadlines propagated by context, panic containment,
// readiness/liveness probes, graceful drain on shutdown, and
// fault-injection points for chaos testing.
package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync/atomic"

	"repro/internal/parallel"
	"repro/internal/resilience"
)

// Server answers range queries over a Store of releases under the
// robustness envelope configured by Config. Create with New, expose with
// Handler (tests) or Run (daemon).
type Server struct {
	cfg      Config
	store    *Store
	gate     *gate
	met      *serveMetrics
	base     context.Context // value-only: carries the fault injector
	draining atomic.Bool
	// follower, when set, marks this replica as syncing from a peer:
	// /readyz gains replication status, responses carry X-STPT-Staleness,
	// and an empty store reads as "awaiting first sync" rather than
	// "misconfigured".
	follower atomic.Pointer[Follower]
	// initialLoadFailed makes /readyz report 503 when the daemon came up
	// without any usable releases. A later successful reload clears it —
	// the operator fixed the files and rang the reload bell, so the
	// balancer may send traffic again. A *failed* reload never sets it:
	// the old generation is still serving.
	initialLoadFailed atomic.Bool
	// integrity, when set, feeds the at-rest scrubber's latched corrupt
	// set into /readyz and its counters into /metrics.
	integrity atomic.Pointer[integrityBox]
}

// IntegritySource is what the serving tier needs from an integrity
// scrubber: the latched corrupt artifacts (readiness) and the lifetime
// pass counters (metrics). *scrub.Scrubber implements it; the interface
// lives here so serve does not import scrub.
type IntegritySource interface {
	CorruptArtifacts() []string
	ScrubCounts() (passes, corruptFound, repaired, quarantined uint64)
}

// integrityBox wraps the interface for atomic.Pointer (which needs a
// concrete type).
type integrityBox struct{ src IntegritySource }

// New builds a Server. ctx is the value context requests inherit — pass
// one carrying a resilience.Injector to enable fault injection; its
// cancellation is deliberately ignored (drain is Run's job, and
// cancelling in-flight requests at shutdown would defeat graceful
// drain).
func New(ctx context.Context, store *Store, cfg Config) *Server {
	cfg = cfg.withDefaults(parallel.Workers(0))
	s := &Server{
		cfg:   cfg,
		store: store,
		gate:  newGate(cfg.Capacity, cfg.Queue),
		base:  context.WithoutCancel(ctx),
	}
	s.met = newServeMetrics(s)
	return s
}

// SetFollower marks this server as a replica syncing from f's peer.
// Call before traffic starts; the caller owns running f (Follower.Run).
func (s *Server) SetFollower(f *Follower) { s.follower.Store(f) }

// SetIntegrity attaches the scrubber whose corrupt-artifact latch gates
// /readyz and whose counters appear on /metrics. Call before traffic
// starts; the caller owns running the scrubber.
func (s *Server) SetIntegrity(src IntegritySource) {
	s.integrity.Store(&integrityBox{src: src})
}

// Integrity returns the attached integrity source, or nil.
func (s *Server) Integrity() IntegritySource {
	if b := s.integrity.Load(); b != nil {
		return b.src
	}
	return nil
}

// Draining reports whether the server has begun graceful shutdown.
func (s *Server) Draining() bool { return s.draining.Load() }

// MarkInitialLoad records the outcome of the startup dataset load. A
// daemon whose initial load failed keeps running — /healthz stays 200,
// /-/reload and SIGHUP can repair it — but /readyz answers 503 so no
// balancer routes queries at an empty store.
func (s *Server) MarkInitialLoad(err error) {
	s.initialLoadFailed.Store(err != nil)
}

// Reload re-reads the store's configured specs and swaps the new
// release set in atomically; in-flight queries finish on the old
// snapshot. On failure the old data keeps serving and the error is
// both logged (structured, to stderr) and returned. Success clears the
// initial-load-failed readiness latch.
func (s *Server) Reload() error {
	if err := s.store.Reload(); err != nil {
		// generation names the set that stayed live, so the log line
		// answers "what is serving right now" without a second probe.
		fmt.Fprintf(os.Stderr, "serve: event=reload outcome=failed generation=%d kept=%v error=%q\n",
			s.store.Generation(), s.store.Names(), err.Error())
		return err
	}
	s.initialLoadFailed.Store(false)
	fmt.Fprintf(os.Stderr, "serve: event=reload outcome=ok generation=%d datasets=%v\n",
		s.store.Generation(), s.store.Names())
	return nil
}

// Run serves on ln until ctx is cancelled (typically by SIGINT/SIGTERM
// via signal.NotifyContext), then drains: the listener closes so no new
// connections are accepted, readiness flips false, and in-flight
// requests get Config.DrainTimeout to finish. A clean drain returns nil;
// anything still running at the deadline is force-closed and Run returns
// a non-nil error so the process can exit non-zero — a forced abort is
// an operational event worth alerting on, not a normal stop.
func (s *Server) Run(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{
		Handler:     s.Handler(),
		BaseContext: func(net.Listener) context.Context { return s.base },
		// Slowloris containment: a client trickling its headers cannot
		// hold a connection open past its own request budget.
		ReadHeaderTimeout: s.cfg.MaxTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		// Serve only returns before shutdown on listener failure.
		return fmt.Errorf("serve: listener: %w", err)
	case <-ctx.Done():
	}

	s.draining.Store(true)
	dctx, cancel := context.WithTimeout(s.base, s.cfg.DrainTimeout)
	defer cancel()
	// Mid-drain injection point: a hook that blocks on dctx.Done()
	// consumes the whole drain budget and forces the abort path.
	if err := resilience.Fire(dctx, resilience.FaultServeDrain, nil); err != nil {
		hs.Close()
		return fmt.Errorf("serve: aborted during drain: %w", err)
	}
	if err := hs.Shutdown(dctx); err != nil {
		hs.Close()
		return fmt.Errorf("serve: forced abort after %s drain: %w", s.cfg.DrainTimeout, err)
	}
	return nil
}

// ListenAndRun resolves addr, announces the bound address through ready
// (which may be nil), and calls Run. Split from Run so callers — the CLI
// and tests alike — can bind port 0 and learn the real address before
// traffic starts.
func (s *Server) ListenAndRun(ctx context.Context, addr string, ready func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if ready != nil {
		ready(ln.Addr())
	}
	return s.Run(ctx, ln)
}

// Config returns the server's effective (default-applied) configuration.
func (s *Server) Config() Config { return s.cfg }
