// Command stpt-serve is the query-serving daemon over published DP
// releases: it loads one or more sanitised matrices and answers
// 3-orthotope range queries over HTTP with load shedding, per-request
// deadlines, panic containment, and graceful drain on SIGINT/SIGTERM.
//
// Usage:
//
//	stpt-datagen -dataset CA -grid 16 -hours 60 > ca.csv
//	stpt-run -in ca.csv -ttrain 30 -alg stpt -o ca-release.csv
//	stpt-serve -load ca=ca-release.csv -addr :8080
//	curl 'localhost:8080/query?d=ca&x0=0&x1=3&y0=0&y1=3&t0=0&t1=9'
//
// Endpoints: /query (range queries), /datasets (loaded releases),
// /healthz (liveness), /readyz (readiness; 503 while saturated,
// draining, or if the initial load failed), /metrics (Prometheus text),
// /catalog and /catalog/file (the replication control plane), and —
// with -reload-token — authenticated POST /-/reload for zero-downtime
// dataset swaps. SIGHUP triggers the same reload: all -load files are
// re-read and swapped in atomically while in-flight queries finish on
// the old snapshot; a failed reload keeps the old data serving.
//
// Only releases are served: -load accepts the x,y,t,value cell list
// stpt-run and stpt-pipeline publish, never a stpt-datagen household
// file — its readings were never noised, and exact sums over them would
// leak the data the mechanism protects.
//
// Replica mode: -follow <peer-url> -data-dir <dir> turns the daemon
// into a follower that anti-entropy-syncs the peer's release catalog
// with resumable, checksum-verified downloads and serves the same
// answers. A follower whose peer is unreachable keeps serving its last
// good generation (degraded: /readyz reports staleness and every
// response carries X-STPT-Staleness) and latches healthy when the sync
// catches up:
//
//	stpt-serve -load ca=ca-release.csv -addr :8080                 # leader
//	stpt-serve -follow http://leader:8080 -data-dir /var/stpt -addr :8081
//	stpt-serve -follow http://leader:8080 -data-dir /var/stpt2 -addr :8082
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/profiling"
	"repro/internal/resilience"
	"repro/internal/scrub"
	"repro/internal/serve"
)

func main() {
	var loads []string
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		capacity   = flag.Int("capacity", 0, "max concurrent queries (0 = GOMAXPROCS)")
		queue      = flag.Int("queue", 0, "admission queue depth beyond capacity (0 = 2x capacity)")
		timeout    = flag.Duration("timeout", 2*time.Second, "default per-request deadline")
		maxTimeout = flag.Duration("max-timeout", 10*time.Second, "cap on client-requested ?timeout=")
		drain      = flag.Duration("drain", 5*time.Second, "graceful-shutdown drain deadline")
		retryAfter = flag.Duration("retry-after", time.Second, "Retry-After hint on 429 responses")
		chaos      = flag.String("chaos", "", "fault-injection spec for robustness testing, e.g. slow=50ms,panic=100 (see internal/serve.ChaosInjector)")
		reloadTok  = flag.String("reload-token", "", "bearer token enabling authenticated POST /-/reload (empty = endpoint disabled; SIGHUP reload always works)")
		pprofAddr  = flag.String("pprof-addr", "", "listen address for the net/http/pprof debug surface (empty = disabled); keep it on a loopback or otherwise private interface")
		follow     = flag.String("follow", "", "peer URL to sync releases from (replica mode); requires -data-dir")
		dataDir    = flag.String("data-dir", "", "directory a follower installs synced releases into")
		syncEvery  = flag.Duration("sync-interval", 2*time.Second, "anti-entropy period in -follow mode")
		scrubEvery = flag.Duration("scrub-interval", time.Minute, "period between at-rest integrity scrub passes (0 = scrubbing disabled)")
		scrubRate  = flag.Int64("scrub-rate", 0, "scrub read throttle in bytes/sec (0 = unthrottled)")
	)
	flag.Func("load", "release to serve as name=path (repeatable); path is a release in the x,y,t,value format stpt-run and stpt-pipeline write (raw household CSVs are refused)", func(v string) error {
		loads = append(loads, v)
		return nil
	})
	flag.Parse()
	if *follow == "" && len(loads) == 0 {
		fatalf("no releases: pass at least one -load name=path (or -follow a peer)")
	}
	if *follow != "" && *dataDir == "" {
		fatalf("-follow requires -data-dir")
	}
	if a, err := profiling.Serve(*pprofAddr); err != nil {
		fatalf("%v", err)
	} else if a != "" {
		fmt.Fprintf(os.Stderr, "stpt-serve: pprof surface on http://%s/debug/pprof/\n", a)
	}

	specs := make([]serve.LoadSpec, 0, len(loads))
	for _, l := range loads {
		sp, err := serve.ParseLoadSpec(l)
		if err != nil {
			fatalf("-load %v", err)
		}
		specs = append(specs, sp)
	}
	store := serve.NewStore()
	// All-or-nothing: either every release loads or none is swapped in. A
	// failed initial load does NOT exit — the daemon serves /readyz 503
	// until a SIGHUP or POST /-/reload brings fixed files in, so a bad
	// deploy degrades to "not ready" instead of crash-looping. A follower
	// with no -load starts empty and is not-ready until its first sync.
	var initialErr error
	if len(specs) > 0 {
		initialErr = store.LoadAll(specs)
	}
	if initialErr != nil {
		fmt.Fprintf(os.Stderr, "stpt-serve: initial load failed (serving not-ready until reload): %v\n", initialErr)
	} else {
		for _, name := range store.Names() {
			rel, _ := store.Get(name)
			fmt.Fprintf(os.Stderr, "stpt-serve: loaded %q: %dx%dx%d, total %.4g\n",
				name, rel.Matrix.Cx, rel.Matrix.Cy, rel.Matrix.Ct, rel.Matrix.Total())
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *chaos != "" {
		in, err := serve.ChaosInjector(*chaos)
		if err != nil {
			fatalf("%v", err)
		}
		ctx = resilience.WithInjector(ctx, in)
		fmt.Fprintf(os.Stderr, "stpt-serve: CHAOS MODE: %s\n", *chaos)
	}

	s := serve.New(ctx, store, serve.Config{
		Capacity:       *capacity,
		Queue:          *queue,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		DrainTimeout:   *drain,
		RetryAfter:     *retryAfter,
		ReloadToken:    *reloadTok,
	})
	s.MarkInitialLoad(initialErr)

	var fl *serve.Follower
	if *follow != "" {
		var err error
		fl, err = serve.NewFollower(store, serve.FollowerConfig{
			Peer:     *follow,
			Dir:      *dataDir,
			Interval: *syncEvery,
		})
		if err != nil {
			fatalf("%v", err)
		}
		s.SetFollower(fl)
		go fl.Run(ctx)
		fmt.Fprintf(os.Stderr, "stpt-serve: following %s (anti-entropy every %s, data dir %s)\n",
			*follow, *syncEvery, *dataDir)
	}

	if *scrubEvery > 0 {
		scfg := scrub.Config{
			Interval:    *scrubEvery,
			BytesPerSec: *scrubRate,
			Targets:     scrub.StoreTargets(store),
		}
		if fl != nil {
			// A follower self-heals: a quarantined release is re-fetched
			// from the peer through the verified catalog path. A leader has
			// no upstream — corruption latches /readyz until an operator
			// (or stpt-doctor with a healthy replica) restores the bytes.
			scfg.Repair = func(ctx context.Context, t scrub.Target) error {
				return fl.RepairFile(ctx, t.Path)
			}
		}
		sc, err := scrub.New(scfg)
		if err != nil {
			fatalf("%v", err)
		}
		s.SetIntegrity(sc)
		go sc.Run(ctx)
		fmt.Fprintf(os.Stderr, "stpt-serve: scrubbing at-rest releases every %s\n", *scrubEvery)
	}

	// SIGHUP: the classic zero-downtime reload bell. In-flight queries
	// finish on the old snapshot; a failed reload keeps the old data.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			// Reload logs its own outcome; a failure leaves the old
			// generation serving, so there is nothing further to do here.
			_ = s.Reload()
		}
	}()

	err := s.ListenAndRun(ctx, *addr, func(a net.Addr) {
		cfg := s.Config()
		fmt.Fprintf(os.Stderr, "stpt-serve: listening on %s (capacity %d, queue %d, default timeout %s)\n",
			a, cfg.Capacity, cfg.Queue, cfg.DefaultTimeout)
	})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintln(os.Stderr, "stpt-serve: drained cleanly")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "stpt-serve: "+format+"\n", args...)
	os.Exit(1)
}
