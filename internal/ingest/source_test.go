package ingest

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/resilience"
)

func sourcePolicy(attempts int) resilience.Policy {
	return resilience.Policy{MaxAttempts: attempts, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond}
}

// TestFetchHTTPRetriesTransient: 5xx and 429 responses are retried
// under the deterministic schedule, the server's Retry-After is
// honoured, and the eventual 200 body streams through.
func TestFetchHTTPRetriesTransient(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			http.Error(w, "boom", http.StatusInternalServerError)
		case 2:
			w.Header().Set("Retry-After", "0")
			http.Error(w, "slow down", http.StatusTooManyRequests)
		default:
			io.WriteString(w, "0,0,0,1.5\n")
		}
	}))
	defer ts.Close()
	body, err := FetchHTTP(context.Background(), nil, ts.URL, sourcePolicy(5))
	if err != nil {
		t.Fatal(err)
	}
	defer body.Close()
	got, err := io.ReadAll(body)
	if err != nil || string(got) != "0,0,0,1.5\n" {
		t.Fatalf("body = %q, %v", got, err)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("server saw %d requests, want 3", n)
	}
}

// TestFetchHTTPPermanentFailsFast: a non-transient 4xx is not worth
// retrying — the request is wrong, not the weather.
func TestFetchHTTPPermanentFailsFast(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.NotFound(w, r)
	}))
	defer ts.Close()
	if _, err := FetchHTTP(context.Background(), nil, ts.URL, sourcePolicy(5)); err == nil {
		t.Fatal("404 fetch succeeded")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("server saw %d requests for a permanent failure, want 1", n)
	}
}

// TestFetchHTTPBoundedAttempts: a persistently failing upstream exhausts
// the budget and surfaces the last error instead of spinning forever.
func TestFetchHTTPBoundedAttempts(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	_, err := FetchHTTP(context.Background(), nil, ts.URL, sourcePolicy(3))
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("err = %v, want the last 503", err)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("server saw %d requests, want exactly 3", n)
	}
}

// TestParseRetryAfter covers the seconds form and the refusals. The
// parser now lives in resilience (shared with replica sync);
// this pins the ingest-visible contract.
func TestParseRetryAfter(t *testing.T) {
	for h, want := range map[string]time.Duration{"0": 0, "7": 7 * time.Second} {
		if d, ok := resilience.ParseRetryAfter(h); !ok || d != want {
			t.Errorf("ParseRetryAfter(%q) = %v, %v", h, d, ok)
		}
	}
	for _, h := range []string{"", "-1", "soon", "Tue, 29 Oct 2024 16:56:32 GMT"} {
		if _, ok := resilience.ParseRetryAfter(h); ok {
			t.Errorf("ParseRetryAfter(%q) accepted", h)
		}
	}
}
