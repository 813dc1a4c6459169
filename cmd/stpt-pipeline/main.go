// Command stpt-pipeline is the supervised continual-release daemon: one
// long-running process driving ingest → windowed sanitisation →
// tree-composed budget charge → atomic publication → query-daemon
// reload, with every window's lifecycle journalled in a crash-safe
// manifest so a SIGKILL at any instant recovers to the exact next step —
// no window lost, none published twice, the budget never double-charged.
//
// One-shot (drain the feed, publish every covered window, exit):
//
//	stpt-pipeline -wal feed.wal -grid 16 -t 96 -window 24 \
//	    -in readings.csv -out releases/ -manifest releases/manifest \
//	    -ledger budget.ledger -eps-node 0.5 -budget 4
//
// Daemon (HTTP ingestion; windows publish as their data completes):
//
//	stpt-pipeline -wal feed.wal -grid 16 -t 96 -window 24 \
//	    -listen :8091 -token s3cret -out releases/ -manifest releases/manifest \
//	    -ledger budget.ledger -eps-node 0.5 -budget 4 \
//	    -reload-url http://localhost:8092/-/reload -reload-token sesame
//
// Budget accounting is the binary-tree continual-release composition:
// n windows cost ε_node·(⌊log₂ n⌋+1), not n·ε_node. When the lifetime
// budget is exhausted the daemon degrades instead of dying: published
// windows keep serving, /readyz answers 503 with budget_exhausted, and
// an authenticated POST /-/budget with a larger ε resumes the stream
// exactly where it stopped. In one-shot mode exhaustion exits with
// status 2 so schedulers can tell "refused by budget" from a crash.
//
// Malformed readings are quarantined to -dead-letter (JSONL, rotated at
// ingest.DefaultDeadLetterMax). The WAL folds into a snapshot every
// walCompactBatches batches or walCompactBytes of log (or on POST
// /-/compact), so disk use stays bounded. An http(s):// -in source is
// fetched under ingest.DefaultSourcePolicy: five attempts, honouring
// Retry-After.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/dp"
	"repro/internal/ingest"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/profiling"
	"repro/internal/resilience"
	"repro/internal/scrub"
)

// WAL compaction thresholds: fold the log into a snapshot after this
// many committed batches, or once the active segment passes this many
// bytes, whichever comes first.
const (
	walCompactBatches = 1024
	walCompactBytes   = 64 << 20
)

func main() {
	var (
		walPath     = flag.String("wal", "", "write-ahead log path; required (replayed on start)")
		gridSide    = flag.Int("grid", 16, "spatial grid side (Cx = Cy)")
		tLen        = flag.Int("t", 0, "number of time intervals; required")
		window      = flag.Int("window", 0, "time intervals per published window; required")
		outDir      = flag.String("out", "", "output directory for window releases; required")
		manifestF   = flag.String("manifest", "", "window-lifecycle manifest path (default: <out>/manifest)")
		ledgerPath  = flag.String("ledger", "", "privacy-budget ledger file; required")
		datasetF    = flag.String("dataset", "stream", "ledger dataset name the tree composer owns")
		epsNode     = flag.Float64("eps-node", 0, "per-tree-node ε each window is sanitised with; required")
		budget      = flag.Float64("budget", 0, "lifetime ε budget (0 = record only, never refuse)")
		sens        = flag.Float64("sensitivity", 1, "per-cell L1 sensitivity of one reading")
		seed        = flag.Int64("seed", 1, "base seed for deterministic window noise")
		inPath      = flag.String("in", "", "one-shot mode: ingest this CSV ('-' = stdin, http(s):// = fetched with bounded retries), publish, exit")
		deadPath    = flag.String("dead-letter", "", "quarantine file for malformed readings (JSONL; default: no file, counted only)")
		listen      = flag.String("listen", "", "daemon mode: serve ingestion + supervision on this address")
		token       = flag.String("token", "", "bearer token for mutating HTTP endpoints; required with -listen")
		reloadURL   = flag.String("reload-url", "", "POST this URL after each publication (stpt-serve /-/reload)")
		reloadToken = flag.String("reload-token", "", "bearer token for -reload-url")
		interval    = flag.Duration("interval", time.Second, "daemon poll interval between idle checks")
		batch       = flag.Int("batch", 256, "readings per WAL append+fsync")
		retries     = flag.Int("stage-retries", 3, "attempts per pipeline stage on transient failures")
		maxElapsed  = flag.Duration("stage-max-elapsed", 30*time.Second, "total wall-clock cap across one stage's retries")
		pprofAddr   = flag.String("pprof-addr", "", "listen address for the net/http/pprof debug surface (empty = disabled); keep it on a loopback or otherwise private interface")
		scrubEvery  = flag.Duration("scrub-interval", time.Minute, "period between at-rest integrity scrub passes in daemon mode (0 = scrubbing disabled)")
		scrubRate   = flag.Int64("scrub-rate", 0, "scrub read throttle in bytes/sec (0 = unthrottled)")
	)
	flag.Parse()
	switch {
	case *walPath == "":
		fatalf("missing -wal")
	case *tLen <= 0:
		fatalf("missing -t (number of time intervals)")
	case *window <= 0:
		fatalf("missing -window (intervals per release)")
	case *outDir == "":
		fatalf("missing -out (release directory)")
	case *ledgerPath == "":
		fatalf("missing -ledger (a continual release without a durable budget is not a DP pipeline)")
	case *epsNode <= 0:
		fatalf("missing -eps-node (per-node privacy budget)")
	case *inPath == "" && *listen == "":
		fatalf("nothing to do: give -in for one-shot mode or -listen for the daemon")
	case *listen != "" && *token == "":
		fatalf("-listen needs -token: the daemon refuses every mutating request without one")
	}
	if a, err := profiling.Serve(*pprofAddr); err != nil {
		fatalf("%v", err)
	} else if a != "" {
		fmt.Fprintf(os.Stderr, "stpt-pipeline: pprof surface on http://%s/debug/pprof/\n", a)
	}
	manifestPath := *manifestF
	if manifestPath == "" {
		manifestPath = *outDir + "/manifest"
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	icfg := ingest.Config{
		Cx: *gridSide, Cy: *gridSide, Ct: *tLen, BatchSize: *batch,
		CompactBatches: walCompactBatches, CompactBytes: walCompactBytes,
	}
	if *deadPath != "" {
		dead, err := ingest.OpenDeadLetter(*deadPath, ingest.DefaultDeadLetterMax)
		if err != nil {
			fatalf("%v", err)
		}
		defer dead.Close()
		icfg.DeadLetter = dead
	}
	in, err := ingest.New(icfg, *walPath)
	if err != nil {
		fatalf("%v", err)
	}
	defer in.Close()
	if replayed := in.Stats().Replayed; replayed > 0 {
		fmt.Fprintf(os.Stderr, "stpt-pipeline: replayed %d readings from %s\n", replayed, *walPath)
	}
	led, err := dp.OpenLedger(*ledgerPath)
	if err != nil {
		fatalf("%v", err)
	}
	defer led.Close()
	if err := os.MkdirAll(filepath.Dir(manifestPath), 0o755); err != nil {
		fatalf("%v", err)
	}
	man, err := pipeline.OpenManifest(manifestPath)
	if err != nil {
		fatalf("%v", err)
	}
	defer man.Close()
	if man.Len() > 0 {
		fmt.Fprintf(os.Stderr, "stpt-pipeline: manifest resumes at window %d, state %s\n",
			man.LastWindow(), man.LastState())
	}

	cfg := pipeline.Config{
		Dataset: *datasetF, OutDir: *outDir, Window: *window,
		EpsNode: *epsNode, Budget: *budget, Sensitivity: *sens, Seed: *seed,
		Policy: resilience.Policy{
			MaxAttempts: *retries, BaseDelay: 100 * time.Millisecond,
			MaxDelay: 5 * time.Second, MaxElapsed: *maxElapsed,
		},
	}
	if *reloadURL != "" {
		cfg.Notifier = pipeline.HTTPNotifier(*reloadURL, *reloadToken, nil)
	}
	sup, err := pipeline.New(cfg, in, led, man)
	if err != nil {
		fatalf("%v", err)
	}

	if *listen != "" {
		var sc *scrub.Scrubber
		if *scrubEvery > 0 {
			// The pipeline has no upstream to repair from: a corrupt
			// journal or release latches /readyz "corrupt" until
			// stpt-doctor (or an operator) restores the bytes. The active
			// WAL segment is excluded by PipelineTargets — its torn tail is
			// a legal crash signature, not rot.
			sc, err = scrub.New(scrub.Config{
				Interval:    *scrubEvery,
				BytesPerSec: *scrubRate,
				Targets:     scrub.PipelineTargets(*outDir, manifestPath, *ledgerPath, *walPath),
			})
			if err != nil {
				fatalf("%v", err)
			}
			go sc.Run(ctx)
			fmt.Fprintf(os.Stderr, "stpt-pipeline: scrubbing at-rest artifacts every %s\n", *scrubEvery)
		}
		serveHTTP(ctx, sup, sc, *listen, *token, *interval)
		return
	}

	// One-shot: stream the feed in, then publish every covered window.
	var src io.Reader = os.Stdin
	switch {
	case strings.HasPrefix(*inPath, "http://"), strings.HasPrefix(*inPath, "https://"):
		body, err := ingest.FetchHTTP(ctx, nil, *inPath, ingest.DefaultSourcePolicy())
		if err != nil {
			fatalf("%v", err)
		}
		defer body.Close()
		src = body
	case *inPath != "-":
		f, err := os.Open(*inPath)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		src = f
	}
	accepted, quarantined, err := in.Ingest(ctx, src)
	fmt.Fprintf(os.Stderr, "stpt-pipeline: accepted %d, quarantined %d\n", accepted, quarantined)
	if err != nil {
		fatalf("%v", err)
	}
	if err := sup.RunOnce(ctx); err != nil {
		if errors.Is(err, dp.ErrBudgetExhausted) {
			st := sup.Status()
			fmt.Fprintf(os.Stderr, "stpt-pipeline: budget exhausted after %d windows (spent ε=%g of %g): %v\n",
				st.Published, st.Spent, st.Budget, err)
			os.Exit(2)
		}
		fatalf("%v", err)
	}
	st := sup.Status()
	fmt.Fprintf(os.Stderr, "stpt-pipeline: %d windows published, spent ε=%g\n", st.Published, st.Spent)
}

// serveHTTP runs ingestion and supervision on one listener until the
// context is cancelled, then drains. With a scrubber attached, /readyz
// reports "corrupt" while artifacts are latched damaged and /metrics
// carries the scrub counters.
func serveHTTP(ctx context.Context, sup *pipeline.Supervisor, sc *scrub.Scrubber, addr, token string, interval time.Duration) {
	hcfg := pipeline.HandlerConfig{Token: token}
	if sc != nil {
		hcfg.Integrity = sc
		hcfg.Metrics = scrubMetricsHandler(sc)
	}
	h := pipeline.Handler(sup, hcfg)
	srv := &http.Server{Addr: addr, Handler: h}
	errc := make(chan error, 2)
	go func() { errc <- srv.ListenAndServe() }()
	go func() { errc <- sup.Run(ctx, interval) }()
	fmt.Fprintf(os.Stderr, "stpt-pipeline: listening on %s\n", addr)
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, context.Canceled) && !strings.Contains(err.Error(), "Server closed") {
			fatalf("%v", err)
		}
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fatalf("shutdown: %v", err)
	}
	fmt.Fprintln(os.Stderr, "stpt-pipeline: drained")
}

// scrubMetricsHandler exposes the scrub counters in Prometheus text
// format on the pipeline's /metrics.
func scrubMetricsHandler(sc *scrub.Scrubber) http.Handler {
	reg := metrics.NewRegistry()
	count := func(pick func(p, c, r, q uint64) uint64) func() float64 {
		return func() float64 { return float64(pick(sc.ScrubCounts())) }
	}
	reg.GaugeFunc("stpt_pipeline_scrub_passes_total",
		"Completed integrity-scrub passes over the at-rest artifacts.",
		count(func(p, _, _, _ uint64) uint64 { return p }))
	reg.GaugeFunc("stpt_pipeline_scrub_corrupt_found_total",
		"Artifacts found corrupt by the integrity scrubber.",
		count(func(_, c, _, _ uint64) uint64 { return c }))
	reg.GaugeFunc("stpt_pipeline_scrub_repaired_total",
		"Corrupt artifacts repaired and byte-verified.",
		count(func(_, _, r, _ uint64) uint64 { return r }))
	reg.GaugeFunc("stpt_pipeline_scrub_quarantined_total",
		"Corrupt artifacts quarantined to <path>.corrupt.",
		count(func(_, _, _, q uint64) uint64 { return q }))
	reg.GaugeFunc("stpt_pipeline_scrub_corrupt_artifacts",
		"Artifacts currently latched corrupt (readiness reports 'corrupt' while > 0).",
		func() float64 { return float64(len(sc.CorruptArtifacts())) })
	return reg.Handler()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "stpt-pipeline: "+format+"\n", args...)
	os.Exit(1)
}
