// Command stpt-gate is the failover gateway in front of N stpt-serve
// replicas. It health-probes each replica's /readyz, routes queries
// round-robin over the available ones, trips per-replica circuit
// breakers on consecutive failures, retries transient errors on other
// replicas within a bounded budget, optionally hedges slow reads, and
// answers 503 with Retry-After only when every replica is down.
//
// Usage:
//
//	stpt-serve -load ca=ca-release.csv -addr :8081                  # leader
//	stpt-serve -follow http://localhost:8081 -data-dir d2 -addr :8082
//	stpt-gate -replica http://localhost:8081 -replica http://localhost:8082 -addr :8080
//	curl 'localhost:8080/query?d=ca&x0=0&x1=3&y0=0&y1=3&t0=0&t1=9'
//
// Endpoints: /healthz and /readyz (the gateway's own; readyz is 503
// only when no replica is routable), /metrics (Prometheus text), and
// everything else proxied with failover. Responses carry X-STPT-Replica
// (which backend answered), X-STPT-Staleness when a follower answered,
// and X-Request-ID (generated or propagated, and forwarded to the
// replica so one query is one id across the whole tier).
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

	"repro/internal/gate"
)

func main() {
	var replicas []string
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		probeEvery = flag.Duration("probe-interval", 500*time.Millisecond, "replica /readyz probe period")
		probeTo    = flag.Duration("probe-timeout", time.Second, "per-probe timeout")
		attemptTo  = flag.Duration("timeout", 2*time.Second, "per-attempt timeout against one replica")
		budget     = flag.Int("retry-budget", 0, "max attempts per request across replicas (0 = number of replicas, capped at 4)")
		hedge      = flag.Duration("hedge-after", 0, "launch a hedged read on another replica after this delay (0 = disabled)")
		brThresh   = flag.Int("breaker-threshold", 3, "consecutive failures that open a replica's circuit breaker")
		brCool     = flag.Duration("breaker-cooldown", time.Second, "how long an open breaker waits before a half-open probe")
		retryAfter = flag.Duration("retry-after", time.Second, "Retry-After hint on all-replicas-down 503s")
	)
	flag.Func("replica", "replica base URL (repeatable)", func(v string) error {
		replicas = append(replicas, v)
		return nil
	})
	flag.Parse()
	if len(replicas) == 0 {
		fatalf("no replicas: pass at least one -replica http://host:port")
	}

	g, err := gate.New(gate.Config{
		Replicas:         replicas,
		ProbeInterval:    *probeEvery,
		ProbeTimeout:     *probeTo,
		AttemptTimeout:   *attemptTo,
		RetryBudget:      *budget,
		HedgeAfter:       *hedge,
		BreakerThreshold: *brThresh,
		BreakerCooldown:  *brCool,
		RetryAfter:       *retryAfter,
	})
	if err != nil {
		fatalf("%v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err = g.ListenAndRun(ctx, *addr, func(a net.Addr) {
		fmt.Fprintf(os.Stderr, "stpt-gate: listening on %s, %d replicas %v\n", a, len(replicas), replicas)
	})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintln(os.Stderr, "stpt-gate: shut down cleanly")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "stpt-gate: "+format+"\n", args...)
	os.Exit(1)
}
