// Package gate is the failover gateway in front of N stpt-serve
// replicas: it health-probes each replica's /readyz, routes queries to
// available ones round-robin, trips a per-replica circuit breaker on
// consecutive failures, retries transient errors on other replicas
// within a bounded budget, hedges slow reads after a configurable
// delay, and answers 503 with Retry-After only when every replica is
// down. Because every replica serves the same immutable releases (the
// leader by loading them, followers by anti-entropy sync), any replica
// can answer any query — failover needs no affinity and no state.
package gate

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/reqid"
)

// Config tunes a Gateway. Replicas is required.
type Config struct {
	// Replicas are the base URLs of the serving replicas.
	Replicas []string
	// ProbeInterval is how often each replica's /readyz is polled.
	// Default 500ms.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe. Default 1s.
	ProbeTimeout time.Duration
	// AttemptTimeout bounds one proxied attempt to one replica; on
	// expiry the attempt is abandoned and the budget may try another
	// replica. Default 2s.
	AttemptTimeout time.Duration
	// RetryBudget is the max attempts (first try + retries + hedges)
	// one client request may spend across replicas. Default
	// len(Replicas), capped at 4.
	RetryBudget int
	// HedgeAfter, when positive, starts a second attempt on another
	// replica if the first has not answered within this delay — the
	// classic tail-latency hedge. The first answer wins; the loser is
	// cancelled. Default 0 (disabled).
	HedgeAfter time.Duration
	// BreakerThreshold is how many consecutive failures open a
	// replica's circuit. Default 3.
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit waits before
	// admitting a half-open probe. Default 1s.
	BreakerCooldown time.Duration
	// RetryAfter is the hint clients get with an all-replicas-down 503.
	// Default 1s.
	RetryAfter time.Duration
	// HTTP is the transport; nil means http.DefaultClient.
	HTTP *http.Client
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 2 * time.Second
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = len(c.Replicas)
		if c.RetryBudget > 4 {
			c.RetryBudget = 4
		}
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// replica is one backend and its health/breaker state.
type replica struct {
	url     string
	br      *breaker
	healthy atomic.Bool
}

// Gateway routes queries over the configured replicas. Create with New,
// start probes with Run (or StartProbes in tests), expose with Handler.
type Gateway struct {
	cfg      Config
	replicas []*replica
	rr       atomic.Uint64 // round-robin cursor
	met      *gateMetrics
}

// New validates cfg and builds a Gateway. Replicas start optimistically
// healthy so traffic flows before the first probe round completes.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("gate: no replicas configured")
	}
	cfg = cfg.withDefaults()
	g := &Gateway{cfg: cfg}
	for _, raw := range cfg.Replicas {
		u, err := url.Parse(raw)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("gate: replica %q is not an absolute URL", raw)
		}
		rep := &replica{
			url: strings.TrimRight(raw, "/"),
			br:  newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		}
		rep.healthy.Store(true)
		g.replicas = append(g.replicas, rep)
	}
	g.met = newGateMetrics(g)
	return g, nil
}

func (g *Gateway) client() *http.Client {
	if g.cfg.HTTP != nil {
		return g.cfg.HTTP
	}
	return http.DefaultClient
}

// available counts replicas currently considered routable.
func (g *Gateway) available() int {
	n := 0
	now := time.Now()
	for _, rep := range g.replicas {
		if rep.healthy.Load() && rep.br.current() != stateOpen {
			_ = now
			n++
		}
	}
	return n
}

// candidates returns the replicas to try, round-robin rotated, filtered
// to healthy ones with a willing breaker. If that filter empties the
// list — probes stale, every breaker open — it falls back to all
// replicas: when everything looks down, trying is strictly better than
// refusing, and the 503 only happens after real attempts fail.
func (g *Gateway) candidates(now time.Time) []*replica {
	start := int(g.rr.Add(1)-1) % len(g.replicas)
	rotated := make([]*replica, 0, len(g.replicas))
	for i := 0; i < len(g.replicas); i++ {
		rotated = append(rotated, g.replicas[(start+i)%len(g.replicas)])
	}
	picked := make([]*replica, 0, len(rotated))
	for _, rep := range rotated {
		if rep.healthy.Load() && rep.br.allow(now) {
			picked = append(picked, rep)
		}
	}
	if len(picked) == 0 {
		return rotated
	}
	return picked
}

// attemptResult is one proxied attempt's outcome. A "failure" is a
// transport error, a timeout, or a 5xx/429 from the replica — the cases
// where another replica might do better. Everything else (2xx, 4xx) is
// the answer and is relayed as-is: a malformed query is the client's
// problem, not the replica's.
type attemptResult struct {
	rep     *replica
	status  int
	header  http.Header
	body    []byte
	err     error // non-nil: transport-level failure
	elapsed time.Duration
}

func (a *attemptResult) failure() bool {
	if a.err != nil {
		return true
	}
	return a.status >= 500 || a.status == http.StatusTooManyRequests
}

// maxRelayBytes bounds a buffered replica response. Query answers are
// small JSON documents; anything bigger is itself a fault.
const maxRelayBytes = 16 << 20

// attempt proxies the client request to one replica and buffers the
// full response, so a win can be relayed atomically and a loser
// discarded without a half-written client body.
func (g *Gateway) attempt(ctx context.Context, rep *replica, r *http.Request) *attemptResult {
	start := time.Now()
	ctx, cancel := context.WithTimeout(ctx, g.cfg.AttemptTimeout)
	defer cancel()
	res := &attemptResult{rep: rep}
	req, err := http.NewRequestWithContext(ctx, r.Method, rep.url+r.URL.RequestURI(), nil)
	if err != nil {
		res.err = err
		return res
	}
	// Propagate the request id so one query is one id across the whole
	// tier: gateway access log, replica log, response header.
	if id := reqid.FromContext(r.Context()); id != "" {
		req.Header.Set(reqid.Header, id)
	}
	resp, err := g.client().Do(req)
	if err != nil {
		res.err = err
		res.elapsed = time.Since(start)
		return res
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxRelayBytes))
	if err != nil {
		res.err = fmt.Errorf("reading replica response: %w", err)
		res.elapsed = time.Since(start)
		return res
	}
	res.status = resp.StatusCode
	res.header = resp.Header
	res.body = body
	res.elapsed = time.Since(start)
	return res
}

// proxy runs the retry/hedge state machine for one client request.
func (g *Gateway) proxy(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	cands := g.candidates(now)
	budget := g.cfg.RetryBudget
	if budget > len(cands) {
		budget = len(cands)
	}

	resc := make(chan *attemptResult, budget)
	// Attempts inherit the client's context: a hung replica can't hold
	// the goroutine past the client's patience + attempt timeout.
	actx, acancel := context.WithCancel(r.Context())
	defer acancel()

	started := 0
	launch := func() bool {
		if started >= budget {
			return false
		}
		rep := cands[started]
		started++
		go func() { resc <- g.attempt(actx, rep, r) }()
		return true
	}
	launch()

	var hedge <-chan time.Time
	if g.cfg.HedgeAfter > 0 {
		t := time.NewTimer(g.cfg.HedgeAfter)
		defer t.Stop()
		hedge = t.C
	}

	inflight := 1
	failures := make([]*attemptResult, 0, budget)
	for {
		select {
		case res := <-resc:
			inflight--
			res.rep.br.done(!res.failure(), time.Now())
			if !res.failure() {
				g.relay(w, r, res)
				return
			}
			failures = append(failures, res)
			g.met.failovers.Inc()
			fmt.Fprintf(os.Stderr, "gate: event=attempt outcome=failed replica=%s id=%s error=%q status=%d\n",
				res.rep.url, reqid.FromContext(r.Context()), errString(res.err), res.status)
			if launch() {
				inflight++
				continue
			}
			if inflight == 0 {
				g.refuse(w, failures)
				return
			}
		case <-hedge:
			hedge = nil
			if launch() {
				inflight++
				g.met.hedges.Inc()
				fmt.Fprintf(os.Stderr, "gate: event=hedge id=%s after=%s\n", reqid.FromContext(r.Context()), g.cfg.HedgeAfter)
			}
		case <-r.Context().Done():
			writeJSONError(w, http.StatusGatewayTimeout, "client request cancelled or timed out", "")
			return
		}
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// relay writes a buffered replica answer to the client, preserving the
// headers that matter across the tier.
func (g *Gateway) relay(w http.ResponseWriter, r *http.Request, res *attemptResult) {
	for _, h := range []string{"Content-Type", "Retry-After", "X-STPT-Staleness"} {
		if v := res.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	// Which replica answered — gold when debugging divergence.
	w.Header().Set("X-STPT-Replica", res.rep.url)
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// refuse answers the only-when-everything-is-down 503.
func (g *Gateway) refuse(w http.ResponseWriter, failures []*attemptResult) {
	g.met.refused.Inc()
	w.Header().Set("Retry-After", strconv.Itoa(int((g.cfg.RetryAfter+time.Second-1)/time.Second)))
	parts := make([]string, 0, len(failures))
	for _, f := range failures {
		if f.err != nil {
			parts = append(parts, fmt.Sprintf("%s: %v", f.rep.url, f.err))
		} else {
			parts = append(parts, fmt.Sprintf("%s: HTTP %d", f.rep.url, f.status))
		}
	}
	writeJSONError(w, http.StatusServiceUnavailable,
		"all replicas failed: "+strings.Join(parts, "; "), "all_replicas_down")
}

func writeJSONError(w http.ResponseWriter, status int, msg, code string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if code != "" {
		fmt.Fprintf(w, "{\"error\":%q,\"code\":%q}\n", msg, code)
	} else {
		fmt.Fprintf(w, "{\"error\":%q}\n", msg)
	}
}

// handleReadyz: the gateway is ready while at least one replica is
// routable — its job is precisely to stay up when replicas fail.
func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	type repStatus struct {
		URL     string `json:"url"`
		Healthy bool   `json:"healthy"`
		Breaker string `json:"breaker"`
	}
	reps := make([]repStatus, 0, len(g.replicas))
	avail := 0
	for _, rep := range g.replicas {
		ok := rep.healthy.Load() && rep.br.current() != stateOpen
		if ok {
			avail++
		}
		reps = append(reps, repStatus{URL: rep.url, Healthy: rep.healthy.Load(), Breaker: rep.br.current().String()})
	}
	status := http.StatusOK
	if avail == 0 {
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", strconv.Itoa(int((g.cfg.RetryAfter+time.Second-1)/time.Second)))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, "{\"available\":%d,\"replicas\":%s}\n", avail, mustJSON(reps))
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		return []byte("[]")
	}
	return b
}

// Handler assembles the gateway's HTTP surface: own health and metrics
// endpoints, everything else proxied with failover.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte("{\"status\":\"ok\"}\n"))
	})
	mux.HandleFunc("/readyz", g.handleReadyz)
	mux.Handle("/metrics", g.met.reg.Handler())
	mux.HandleFunc("/", g.proxy)
	return reqid.Middleware(metrics.Instrument(mux, g.met.requests, g.met.latency))
}

// Run starts the health probers and serves the gateway on ln until ctx
// is cancelled, then shuts down gracefully.
func (g *Gateway) Run(ctx context.Context, ln net.Listener) error {
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	g.StartProbes(pctx)
	hs := &http.Server{Handler: g.Handler(), ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return fmt.Errorf("gate: listener: %w", err)
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		hs.Close()
		return fmt.Errorf("gate: forced abort: %w", err)
	}
	return nil
}

// ListenAndRun binds addr, announces the address through ready (may be
// nil), and calls Run.
func (g *Gateway) ListenAndRun(ctx context.Context, addr string, ready func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("gate: %w", err)
	}
	if ready != nil {
		ready(ln.Addr())
	}
	return g.Run(ctx, ln)
}

// gateMetrics is the gateway's /metrics instrument set.
type gateMetrics struct {
	reg       *metrics.Registry
	requests  *metrics.CounterVec
	failovers *metrics.Counter
	hedges    *metrics.Counter
	refused   *metrics.Counter
	latency   *metrics.Histogram
}

func newGateMetrics(g *Gateway) *gateMetrics {
	reg := metrics.NewRegistry()
	m := &gateMetrics{
		reg:       reg,
		requests:  reg.CounterVec("stpt_gate_requests_total", "Client requests answered, by status code.", "code"),
		failovers: reg.Counter("stpt_gate_failovers_total", "Attempts that failed and were retried on another replica."),
		hedges:    reg.Counter("stpt_gate_hedges_total", "Hedged attempts launched for slow reads."),
		refused:   reg.Counter("stpt_gate_refused_total", "Requests refused 503 because every replica was down."),
		latency:   reg.Histogram("stpt_gate_request_seconds", "End-to-end request latency.", metrics.DefBuckets()),
	}
	reg.GaugeFunc("stpt_gate_replicas_available", "Replicas currently routable.", func() float64 {
		return float64(g.available())
	})
	reg.GaugeFunc("stpt_gate_replicas_total", "Replicas configured.", func() float64 {
		return float64(len(g.replicas))
	})
	return m
}
