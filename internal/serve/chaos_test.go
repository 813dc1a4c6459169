package serve

import (
	"context"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/resilience"
)

// injectorCtx builds a background context carrying a chaos injector.
func injectorCtx(spec string) (context.Context, error) {
	in, err := ChaosInjector(spec)
	if err != nil {
		return nil, err
	}
	return resilience.WithInjector(context.Background(), in), nil
}

// TestPanicYields500AndServerSurvives is the headline chaos property: an
// injected handler panic becomes a structured 500 on that request, and
// the very next request succeeds — the process never dies with a client
// connected.
func TestPanicYields500AndServerSurvives(t *testing.T) {
	// panic=2 panics every second request, so the sequence OK, 500, OK
	// proves both the containment and the recovery.
	ctx, err := injectorCtx("panic=2")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, ctx, Config{})
	q := grid.Query{X1: 1, Y1: 1, T1: 1}
	for i := 0; i < 6; i++ {
		status, body := get(t, queryURL(ts.URL, q, ""))
		want := http.StatusOK
		if i%2 == 1 { // the 2nd, 4th, ... query panics
			want = http.StatusInternalServerError
		}
		if status != want {
			t.Fatalf("request %d: status %d, body %s; want %d", i, status, body, want)
		}
		if want == http.StatusInternalServerError && !strings.Contains(string(body), "internal error") {
			t.Fatalf("request %d: 500 body %q lacks structured error", i, body)
		}
	}
}

// TestPanicCountedInMetrics: a recovered panic's 500 is counted and
// timed in /metrics like any other answer.
func TestPanicCountedInMetrics(t *testing.T) {
	ctx, err := injectorCtx("panic=2")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, ctx, Config{})
	q := grid.Query{X1: 1, Y1: 1, T1: 1}
	for i := 0; i < 4; i++ {
		get(t, queryURL(ts.URL, q, ""))
	}
	_, body := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		`stpt_serve_requests_total{code="200"} 2`,
		`stpt_serve_requests_total{code="500"} 2`,
		`stpt_serve_request_seconds_count 4`,
	} {
		if !strings.Contains(string(body), want+"\n") {
			t.Errorf("/metrics lacks %q:\n%s", want, body)
		}
	}
}

// TestInjectedErrorYields500: a fault hook returning an error (downstream
// failure) maps to 500 with the fault surfaced, and recovery is
// immediate.
func TestInjectedErrorYields500(t *testing.T) {
	ctx, err := injectorCtx("error=2")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, ctx, Config{})
	q := grid.Query{X1: 1, Y1: 1, T1: 1}
	got500 := false
	for i := 0; i < 4; i++ {
		status, _ := get(t, queryURL(ts.URL, q, ""))
		switch status {
		case http.StatusOK:
		case http.StatusInternalServerError:
			got500 = true
		default:
			t.Fatalf("request %d: unexpected status %d", i, status)
		}
	}
	if !got500 {
		t.Fatal("error=2 never produced a 500 over 4 requests")
	}
	if status, _ := get(t, ts.URL+"/healthz"); status != http.StatusOK {
		t.Fatal("server unhealthy after injected errors")
	}
}

// TestSlowHookHonoursDeadline: the slow directive must not outlive the
// request deadline — 504 arrives on time, not after the stall.
func TestSlowHookHonoursDeadline(t *testing.T) {
	ctx, err := injectorCtx("slow=5s")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, ctx, Config{DefaultTimeout: 40 * time.Millisecond})
	start := time.Now()
	status, _ := get(t, queryURL(ts.URL, grid.Query{X1: 1, Y1: 1, T1: 1}, ""))
	elapsed := time.Since(start)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", status)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("504 took %s; the stall ignored the deadline", elapsed)
	}
}

// TestMidDrainFaultForcesAbort: a drain-stall longer than the drain
// budget forces the abort path — Run returns non-nil so the process
// exits non-zero, which is the contract operators alert on.
func TestMidDrainFaultForcesAbort(t *testing.T) {
	ctx, err := injectorCtx("drain-stall=10s")
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore()
	loadReleases(t, store, "rel")
	s := New(ctx, store, Config{DrainTimeout: 50 * time.Millisecond})

	runCtx, cancel := context.WithCancel(ctx)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Run(runCtx, ln) }()
	// One request proves the server is up before we kill it.
	waitUntilServing(t, "http://"+ln.Addr().String())
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Run returned nil despite a stalled drain")
		}
		if !strings.Contains(err.Error(), "drain") {
			t.Fatalf("abort error %q does not mention the drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run hung past the drain deadline")
	}
}

// TestChaosInjectorSpecErrors: malformed specs are refused up front with
// the offending directive named — a typo must not silently disable the
// chaos an operator thought they enabled.
func TestChaosInjectorSpecErrors(t *testing.T) {
	bad := []string{
		"slow",            // no value
		"slow=",           // empty duration
		"slow=-1s",        // negative
		"slow=fast",       // not a duration
		"panic=0",         // zero count
		"panic=-3",        // negative count
		"panic=often",     // not a number
		"error=0",         // zero count
		"drain-stall=nah", // not a duration
		"explode=1",       // unknown directive
	}
	for _, spec := range bad {
		if _, err := ChaosInjector(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
	good := []string{"", "slow=5ms", "slow=5ms,panic=10,error=7,drain-stall=1s", " slow=1ms , panic=2 "}
	for _, spec := range good {
		if _, err := ChaosInjector(spec); err != nil {
			t.Errorf("spec %q rejected: %v", spec, err)
		}
	}
}

// waitUntilServing polls /healthz until the listener answers.
func waitUntilServing(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("server never became healthy")
}
