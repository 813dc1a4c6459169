package pipeline

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"

	"repro/internal/ingest"
	"repro/internal/resilience"
)

// withInjector serves every request under inj, so the handler's
// durable writes see the drill's faults.
func withInjector(h http.Handler, inj *resilience.Injector) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r.WithContext(resilience.WithInjector(r.Context(), inj)))
	})
}

// drillToken is the bearer token the drills' handlers require.
const drillToken = "drill"

// postAuthed POSTs body to url with the drills' bearer token.
func postAuthed(url, body string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+drillToken)
	return http.DefaultClient.Do(req)
}

// getReadyz fetches /readyz and decodes its body.
func getReadyz(t *testing.T, base string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode /readyz: %v", err)
	}
	return resp, body
}

// TestHTTPDiskFull503Resume: the daemon answers 503 + Retry-After while
// the disk is full, flips /readyz to "disk_full", and resumes accepting
// the resent data once space returns — without dropping or
// double-counting any WAL-acknowledged batch.
func TestHTTPDiskFull503Resume(t *testing.T) {
	dir := t.TempDir()
	s, in := newPipeline(t, dir, Config{})
	var full atomic.Bool // set by the test to simulate the disk filling up
	inj := resilience.NewInjector()
	inj.On(resilience.FaultWriteENOSPC, func(ctx context.Context, payload any) error {
		if full.Load() {
			return fmt.Errorf("injected: %w", syscall.ENOSPC)
		}
		return nil
	})
	ts := httptest.NewServer(withInjector(Handler(s, HandlerConfig{Token: drillToken}), inj))
	defer ts.Close()

	feed := feedCSV(tpCt)
	firstHalf := feedCSV(tpCt / 2)
	secondHalf := strings.TrimPrefix(feed, firstHalf)
	post := func(body string) *http.Response {
		resp, err := postAuthed(ts.URL+"/ingest", body)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := post(firstHalf); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy ingest: %d", resp.StatusCode)
	}

	full.Store(true)
	resp := post(secondHalf)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest with a full disk: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without a Retry-After header")
	}
	ready, body := getReadyz(t, ts.URL)
	if ready.StatusCode != http.StatusServiceUnavailable || ready.Header.Get("Retry-After") == "" {
		t.Fatalf("/readyz during exhaustion: %d, Retry-After=%q", ready.StatusCode, ready.Header.Get("Retry-After"))
	}
	if reason, _ := body["reason"].(string); body["status"] != "disk_full" || reason == "" {
		t.Fatalf("/readyz body during exhaustion: %v, want status disk_full with a reason", body)
	}

	full.Store(false)
	if resp := post(secondHalf); resp.StatusCode != http.StatusOK {
		t.Fatalf("resent tail after space returned: %d", resp.StatusCode)
	}
	if ready2, _ := getReadyz(t, ts.URL); ready2.StatusCode != http.StatusOK {
		t.Fatalf("/readyz after recovery: %d", ready2.StatusCode)
	}
	ref, err := ingest.New(ingest.Config{Cx: tpCx, Cy: tpCy, Ct: tpCt}, filepath.Join(t.TempDir(), "ref.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	ingestCSV(t, ref, feed)
	if !reflect.DeepEqual(in.Snapshot().Data(), ref.Snapshot().Data()) {
		t.Fatal("matrix after the HTTP drill differs from the full input")
	}

	// /-/compact works over HTTP: the snapshot folds the log, which
	// restarts as a bare 16-byte header.
	cresp, err := postAuthed(ts.URL+"/-/compact", "")
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("/-/compact: %d", cresp.StatusCode)
	}
	if _, err := os.Stat(filepath.Join(dir, "feed.wal.snap")); err != nil {
		t.Fatalf("no snapshot after /-/compact: %v", err)
	}
	if fi, err := os.Stat(filepath.Join(dir, "feed.wal")); err != nil || fi.Size() != 16 {
		t.Fatalf("log after /-/compact: %v, %v; want a bare 16-byte header", fi, err)
	}
}

// TestHTTPPoisonedWALReadyz: a failed WAL fsync poisons the ingester.
// /ingest and /readyz answer 503 without Retry-After: waiting cannot
// make an unknowable fsync durable, only a restart recovers.
func TestHTTPPoisonedWALReadyz(t *testing.T) {
	s, _ := newPipeline(t, t.TempDir(), Config{})
	inj := resilience.NewInjector()
	inj.On(resilience.FaultSyncEIO, func(context.Context, any) error {
		return errors.New("EIO: injected")
	})
	ts := httptest.NewServer(withInjector(Handler(s, HandlerConfig{Token: drillToken}), inj))
	defer ts.Close()

	resp, err := postAuthed(ts.URL+"/ingest", feedCSV(1))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "" {
		t.Fatalf("ingest on a poisoned WAL: %d, Retry-After=%q; want 503 without one",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	ready, body := getReadyz(t, ts.URL)
	if ready.StatusCode != http.StatusServiceUnavailable || ready.Header.Get("Retry-After") != "" {
		t.Fatalf("/readyz on a poisoned WAL: %d, Retry-After=%q; want 503 without one",
			ready.StatusCode, ready.Header.Get("Retry-After"))
	}
	if reason, _ := body["reason"].(string); body["status"] != "poisoned" || reason == "" {
		t.Fatalf("/readyz body on a poisoned WAL: %v, want status poisoned with a reason", body)
	}
}

// TestHTTPIngestAuthAndStats drives the ingest surface: only
// authenticated POSTs accumulate, malformed lines are counted as
// quarantined, and /stats reports the traffic.
func TestHTTPIngestAuthAndStats(t *testing.T) {
	s, _ := newPipeline(t, t.TempDir(), Config{})
	const token = "sekrit"
	ts := httptest.NewServer(Handler(s, HandlerConfig{Token: token}))
	defer ts.Close()

	post := func(path, body, auth string) (int, map[string]any) {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(body))
		if auth != "" {
			req.Header.Set("Authorization", "Bearer "+auth)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out
	}

	// Unauthenticated and wrong-token posts are refused.
	if status, _ := post("/ingest", "0,0,0,1\n", ""); status != http.StatusForbidden {
		t.Fatalf("unauthenticated ingest: %d", status)
	}
	if status, _ := post("/ingest", "0,0,0,1\n", "wrong"); status != http.StatusForbidden {
		t.Fatalf("wrong token: %d", status)
	}
	// GET on a mutating endpoint is refused.
	resp, err := http.Get(ts.URL + "/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /ingest: %d", resp.StatusCode)
	}

	status, body := post("/ingest", "0,0,0,1.5\n1,1,1,2\nbad,line\n", token)
	if status != http.StatusOK || body["accepted"].(float64) != 2 || body["quarantined"].(float64) != 1 {
		t.Fatalf("ingest: %d %v", status, body)
	}

	// Stats endpoint reflects the traffic.
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Stats ingest.Stats `json:"stats"`
		Cx    int          `json:"cx"`
	}
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.Stats.Accepted != 2 || st.Stats.Quarantined != 1 || st.Cx != tpCx {
		t.Fatalf("stats = %+v", st)
	}
}
