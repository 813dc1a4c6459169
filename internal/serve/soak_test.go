package serve

import (
	"context"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/resilience"
)

// TestSoakCapacityOneOnlyCleanStatuses is the acceptance soak: many
// concurrent clients against a capacity-1, queue-1 server with a slow
// handler. Every response must be 200, 429 (shed) or 504 (deadline) —
// never a hang, a torn response, or a process crash — and all three
// outcomes must actually occur, or the test isn't exercising the gate.
// Run under -race this also proves the admission path is data-race-free.
func TestSoakCapacityOneOnlyCleanStatuses(t *testing.T) {
	ctx, err := injectorCtx("slow=3ms")
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, ctx, Config{
		Capacity:       1,
		Queue:          1,
		DefaultTimeout: 20 * time.Millisecond,
		RetryAfter:     time.Second,
	})

	const clients = 16
	const perClient = 25
	var counts [600]atomic.Int64
	client := &http.Client{Timeout: 10 * time.Second} // generous: a hang, not latency, is the failure
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			q := grid.Query{X1: 1 + c%4, Y1: 1, T1: 1 + c%3}
			for i := 0; i < perClient; i++ {
				resp, err := client.Get(queryURL(ts.URL, q, ""))
				if err != nil {
					t.Errorf("client %d req %d: transport error: %v", c, i, err)
					return
				}
				body, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr != nil {
					t.Errorf("client %d req %d: torn body: %v", c, i, rerr)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK, http.StatusGatewayTimeout:
				case http.StatusTooManyRequests:
					if resp.Header.Get("Retry-After") == "" {
						t.Errorf("429 without Retry-After (body %s)", body)
					}
				default:
					t.Errorf("client %d req %d: forbidden status %d (body %s)", c, i, resp.StatusCode, body)
				}
				counts[resp.StatusCode].Add(1)
			}
		}(c)
	}
	wg.Wait()

	total := int64(0)
	for code := range counts {
		if n := counts[code].Load(); n > 0 {
			t.Logf("status %d: %d responses", code, n)
			total += n
		}
	}
	if total != clients*perClient {
		t.Fatalf("accounted %d responses, want %d", total, clients*perClient)
	}
	if counts[http.StatusOK].Load() == 0 {
		t.Error("soak produced no 200s")
	}
	if counts[http.StatusTooManyRequests].Load() == 0 {
		t.Error("soak produced no 429s — the gate never shed under 16x oversubscription")
	}
	if shed, want := s.met.shed.Value(), counts[http.StatusTooManyRequests].Load(); shed != uint64(want) {
		t.Errorf("stpt_serve_shed_total = %d, want the %d 429s clients saw", shed, want)
	}
}

// TestSigtermDrainsInFlightUnderLoad is the acceptance drain property,
// against the real signal path: a server under load receives an actual
// SIGTERM; in-flight (admitted) requests complete with 200, no request
// is dropped mid-handler, new connections after drain are refused, and
// Run returns nil — the exit-0 contract.
func TestSigtermDrainsInFlightUnderLoad(t *testing.T) {
	// Each admitted query stalls 30ms, so requests straddle the signal.
	ctx, err := injectorCtx("slow=30ms")
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore()
	loadReleases(t, store, "rel")
	s := New(ctx, store, Config{
		Capacity:       2,
		Queue:          2,
		DefaultTimeout: 2 * time.Second,
		DrainTimeout:   5 * time.Second,
	})

	// The real signal path: NotifyContext has the handler installed by
	// the time it returns, so the self-SIGTERM below cannot race the
	// default terminate action and lands in the server's drain.
	sigCtx, stop := signal.NotifyContext(ctx, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	done := make(chan error, 1)
	go func() { done <- s.Run(sigCtx, ln) }()
	waitUntilServing(t, base)

	q := grid.Query{X1: 2, Y1: 2, T1: 2}
	var wg sync.WaitGroup
	var ok200, shed429, refused atomic.Int64
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			for i := 0; i < 10; i++ {
				resp, err := client.Get(queryURL(base, q, ""))
				if err != nil {
					// Connection refused after the listener closed — the
					// correct post-drain behaviour, never a mid-response cut.
					refused.Add(1)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					ok200.Add(1)
				case http.StatusTooManyRequests:
					shed429.Add(1)
				case http.StatusGatewayTimeout:
				default:
					t.Errorf("status %d during drain test", resp.StatusCode)
				}
			}
		}()
	}

	// Let load build, then deliver a genuine SIGTERM to ourselves.
	time.Sleep(60 * time.Millisecond)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run after SIGTERM = %v, want nil (exit 0)", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Run did not return after SIGTERM")
	}
	wg.Wait()
	if !s.Draining() {
		t.Error("server never entered draining state")
	}
	if ok200.Load() == 0 {
		t.Error("no request completed; the test never actually loaded the server")
	}
	t.Logf("drain soak: %d ok, %d shed, %d refused-after-drain", ok200.Load(), shed429.Load(), refused.Load())
}

// TestDrainCompletesWithoutLoad: cancelling an idle server drains
// instantly and returns nil.
func TestDrainCompletesWithoutLoad(t *testing.T) {
	store := NewStore()
	loadReleases(t, store, "rel")
	s := New(context.Background(), store, Config{DrainTimeout: time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx, ln) }()
	waitUntilServing(t, "http://"+ln.Addr().String())
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("idle drain = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("idle drain hung")
	}
}

// TestStuckHandlerForcesDrainAbort: a handler that ignores its deadline
// (stalls past DrainTimeout) forces Shutdown to time out and Run to
// report the forced abort — the exit-nonzero contract.
func TestStuckHandlerForcesDrainAbort(t *testing.T) {
	// A hook that ignores ctx entirely — a truly wedged handler.
	in := resilience.NewInjector()
	release := make(chan struct{})
	in.On(resilience.FaultServeQuery, func(ctx context.Context, payload any) error {
		<-release
		return nil
	})
	ctx := resilience.WithInjector(context.Background(), in)
	store := NewStore()
	loadReleases(t, store, "rel")
	s := New(ctx, store, Config{
		Capacity:       1,
		DefaultTimeout: time.Minute, // the handler, not the deadline, is the problem
		MaxTimeout:     time.Minute,
		DrainTimeout:   80 * time.Millisecond,
	})
	runCtx, cancel := context.WithCancel(context.Background())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	done := make(chan error, 1)
	go func() { done <- s.Run(runCtx, ln) }()
	waitUntilServing(t, base)

	// Wedge one request, then order shutdown.
	go func() {
		client := &http.Client{Timeout: 30 * time.Second}
		resp, err := client.Get(queryURL(base, grid.Query{X1: 1, Y1: 1, T1: 1}, ""))
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitUntil(t, func() bool { return s.gate.inflight() > 0 })
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Run = nil despite a wedged handler at drain")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run hung on a wedged handler")
	}
	close(release)
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never became true")
}
