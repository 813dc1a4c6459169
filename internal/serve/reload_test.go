package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/grid"
)

// scaledMatrix is testMatrix with every cell multiplied by mult, so two
// generations of the same release are trivially distinguishable by sum.
func scaledMatrix(mult float64) *grid.Matrix {
	m := testMatrix()
	for i := range m.Data() {
		m.Data()[i] *= mult
	}
	return m
}

// writeRelease publishes m to path with the same atomic temp+fsync+rename
// the production pipeline uses, so a concurrent reload can never observe
// a half-written file.
func writeRelease(t *testing.T, path string, m *grid.Matrix) {
	t.Helper()
	if err := datasets.SaveMatrixCSVFile(context.Background(), path, m); err != nil {
		t.Fatalf("writing release %s: %v", path, err)
	}
}

// newReloadServer builds a server whose single release "rel" is loaded
// from a real file via the spec set, so Reload has something to re-read.
func newReloadServer(t *testing.T, path, token string) (*Server, *httptest.Server) {
	t.Helper()
	store := NewStore()
	if err := store.LoadAll([]LoadSpec{{Name: "rel", Path: path}}); err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	s := New(context.Background(), store, Config{ReloadToken: token})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postReload fires POST /-/reload with the given bearer token ("" sends
// no Authorization header at all).
func postReload(t *testing.T, base, token string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/-/reload", nil)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := make([]byte, 0, 256)
	buf := make([]byte, 256)
	for {
		n, rerr := resp.Body.Read(buf)
		body = append(body, buf[:n]...)
		if rerr != nil {
			break
		}
	}
	return resp.StatusCode, body
}

func querySum(t *testing.T, base string) float64 {
	t.Helper()
	q := grid.Query{X1: tcx - 1, Y1: tcy - 1, T1: tct - 1}
	status, body := get(t, queryURL(base, q, ""))
	if status != http.StatusOK {
		t.Fatalf("query: status %d, body %s", status, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	return qr.Sum
}

// TestReloadSwapsDatasets: the headline property — rewrite the file,
// ring the bell, and queries answer from the new generation while
// /datasets reflects it.
func TestReloadSwapsDatasets(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rel.csv")
	v1, v2 := testMatrix(), scaledMatrix(3)
	writeRelease(t, path, v1)
	_, ts := newReloadServer(t, path, "sesame")

	if got := querySum(t, ts.URL); got != v1.Total() {
		t.Fatalf("pre-reload sum %g, want %g", got, v1.Total())
	}

	writeRelease(t, path, v2)
	status, body := postReload(t, ts.URL, "sesame")
	if status != http.StatusOK {
		t.Fatalf("reload: status %d, body %s", status, body)
	}
	if !strings.Contains(string(body), "reloaded") {
		t.Fatalf("reload body %s lacks confirmation", body)
	}
	if got := querySum(t, ts.URL); got != v2.Total() {
		t.Fatalf("post-reload sum %g, want %g", got, v2.Total())
	}
	status, body = get(t, ts.URL+"/datasets")
	if status != http.StatusOK || !strings.Contains(string(body), `"rel"`) {
		t.Fatalf("/datasets after reload: status %d, body %s", status, body)
	}
}

// TestReloadAuth: the endpoint is dark without a configured token, and
// with one it refuses anything but an authenticated POST.
func TestReloadAuth(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rel.csv")
	writeRelease(t, path, testMatrix())

	t.Run("disabled-without-token", func(t *testing.T) {
		_, ts := newReloadServer(t, path, "")
		if status, body := postReload(t, ts.URL, "anything"); status != http.StatusNotFound {
			t.Fatalf("status %d, body %s; want 404", status, body)
		}
	})
	t.Run("enabled", func(t *testing.T) {
		_, ts := newReloadServer(t, path, "sesame")
		if status, _ := get(t, ts.URL+"/-/reload"); status != http.StatusMethodNotAllowed {
			t.Fatalf("GET: status %d, want 405", status)
		}
		for _, token := range []string{"", "wrong"} {
			status, body := postReload(t, ts.URL, token)
			if status != http.StatusUnauthorized {
				t.Fatalf("token %q: status %d, want 401", token, status)
			}
			var eb struct {
				Error string `json:"error"`
				Code  string `json:"code"`
			}
			if err := json.Unmarshal(body, &eb); err != nil {
				t.Fatalf("401 body %s is not the typed error envelope: %v", body, err)
			}
			if eb.Code != "unauthorized" || eb.Error == "" {
				t.Fatalf("401 body %s: want code=unauthorized and a message", body)
			}
		}
		if status, _ := postReload(t, ts.URL, "sesame"); status != http.StatusOK {
			t.Fatalf("right token: status %d, want 200", status)
		}
	})
}

// TestFailedReloadKeepsServing: corrupting the file and reloading must
// answer 500 — and change nothing. The old generation keeps serving and
// readiness never flips, because a failed reload is an operator problem,
// not an availability problem.
func TestFailedReloadKeepsServing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rel.csv")
	v1 := testMatrix()
	writeRelease(t, path, v1)
	_, ts := newReloadServer(t, path, "sesame")

	if err := os.WriteFile(path, []byte("x,y,t,value\n1,1,1,not-a-number\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	status, body := postReload(t, ts.URL, "sesame")
	if status != http.StatusInternalServerError {
		t.Fatalf("reload of corrupt file: status %d, body %s; want 500", status, body)
	}
	if !strings.Contains(string(body), "previous datasets still serving") {
		t.Fatalf("500 body %s does not promise continuity", body)
	}
	if got := querySum(t, ts.URL); got != v1.Total() {
		t.Fatalf("sum after failed reload %g, want old %g", got, v1.Total())
	}
	if status, body := get(t, ts.URL+"/readyz"); status != http.StatusOK {
		t.Fatalf("readyz after failed reload: status %d, body %s; want 200", status, body)
	}
}

// TestFailedReloadKeepsGeneration pins the observability half of the
// failure path: the generation id names the set that stayed live — it
// must not move on a failed reload, the structured stderr line must
// carry it, and the old generation must still be the one answering.
func TestFailedReloadKeepsGeneration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rel.csv")
	v1 := testMatrix()
	writeRelease(t, path, v1)
	s, ts := newReloadServer(t, path, "sesame")

	// One successful reload first, so the live generation is not the
	// LoadAll one and the "unchanged" assertion is not vacuous.
	if status, body := postReload(t, ts.URL, "sesame"); status != http.StatusOK {
		t.Fatalf("warm-up reload: status %d, body %s", status, body)
	}
	genBefore := s.store.Generation()
	if genBefore == 0 {
		t.Fatal("generation still 0 after LoadAll + reload")
	}

	// Capture stderr across the failed reload to assert the log line.
	origStderr := os.Stderr
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = pw
	if err := os.WriteFile(path, []byte("x,y,t,value\n0,0,0,nope\n"), 0o644); err != nil {
		os.Stderr = origStderr
		t.Fatal(err)
	}
	status, _ := postReload(t, ts.URL, "sesame")
	pw.Close()
	os.Stderr = origStderr
	logged := make([]byte, 4096)
	n, _ := pr.Read(logged)
	pr.Close()

	if status != http.StatusInternalServerError {
		t.Fatalf("reload of corrupt file: status %d, want 500", status)
	}
	if got := s.store.Generation(); got != genBefore {
		t.Fatalf("failed reload moved the generation: %d -> %d", genBefore, got)
	}
	wantLine := fmt.Sprintf("outcome=failed generation=%d", genBefore)
	if !strings.Contains(string(logged[:n]), wantLine) {
		t.Fatalf("stderr %q does not name the live generation (%q)", logged[:n], wantLine)
	}
	// The named generation really is the one serving.
	if got := querySum(t, ts.URL); got != v1.Total() {
		t.Fatalf("sum after failed reload %g, want old generation's %g", got, v1.Total())
	}
	// /datasets exposes the same id, so operators can correlate.
	status, body := get(t, ts.URL+"/datasets")
	if status != http.StatusOK || !strings.Contains(string(body), fmt.Sprintf(`"generation":%d`, genBefore)) {
		t.Fatalf("/datasets: status %d, body %s; want generation %d", status, body, genBefore)
	}
}

// TestInitialLoadFailureRepairedByReload: a daemon that came up with a
// bad file serves 503 on /readyz (with the cause named) until a reload
// with fixed files succeeds — then readiness returns and queries flow.
func TestInitialLoadFailureRepairedByReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rel.csv")
	store := NewStore()
	initialErr := store.LoadAll([]LoadSpec{{Name: "rel", Path: path}}) // file absent
	if initialErr == nil {
		t.Fatal("LoadAll of a missing file succeeded")
	}
	s := New(context.Background(), store, Config{ReloadToken: "sesame"})
	s.MarkInitialLoad(initialErr)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, body := get(t, ts.URL+"/readyz")
	if status != http.StatusServiceUnavailable || !strings.Contains(string(body), "initial") {
		t.Fatalf("readyz before repair: status %d, body %s; want 503 naming the initial load", status, body)
	}

	writeRelease(t, path, testMatrix())
	if status, body := postReload(t, ts.URL, "sesame"); status != http.StatusOK {
		t.Fatalf("repair reload: status %d, body %s", status, body)
	}
	if status, body := get(t, ts.URL+"/readyz"); status != http.StatusOK {
		t.Fatalf("readyz after repair: status %d, body %s; want 200", status, body)
	}
	if got, want := querySum(t, ts.URL), testMatrix().Total(); got != want {
		t.Fatalf("sum after repair %g, want %g", got, want)
	}
}

// TestRetryAfterSecondsCap: the advertised backoff rounds up to whole
// seconds and never exceeds the cap, no matter how large the configured
// duration is.
func TestRetryAfterSecondsCap(t *testing.T) {
	for _, c := range []struct {
		d    time.Duration
		want int
	}{
		{200 * time.Millisecond, 1},
		{time.Second, 1},
		{1500 * time.Millisecond, 2},
		{59 * time.Second, 59},
		{60 * time.Second, 60},
		{time.Hour, 60},
		{240 * time.Hour, 60},
	} {
		if got := retryAfterSeconds(c.d); got != c.want {
			t.Errorf("retryAfterSeconds(%s) = %d, want %d", c.d, got, c.want)
		}
	}
}

// TestRetryAfterHeaderCapped drives the cap end to end: a server
// misconfigured with an hour-long RetryAfter must still advertise at
// most the capped value on a real shed 429.
func TestRetryAfterHeaderCapped(t *testing.T) {
	ctx, err := injectorCtx("slow=5s")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, ctx, Config{
		Capacity:       1,
		Queue:          1,
		RetryAfter:     time.Hour,
		DefaultTimeout: 500 * time.Millisecond,
	})
	q := grid.Query{X1: 1, Y1: 1, T1: 1}
	var wg sync.WaitGroup
	var capped, uncapped atomic.Int64
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(queryURL(ts.URL, q, ""))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusTooManyRequests {
				return
			}
			if resp.Header.Get("Retry-After") == "60" {
				capped.Add(1)
			} else {
				uncapped.Add(1)
			}
		}()
	}
	wg.Wait()
	if uncapped.Load() > 0 {
		t.Fatalf("%d shed responses advertised an uncapped Retry-After", uncapped.Load())
	}
	if capped.Load() == 0 {
		t.Fatal("capacity 1 + queue 1 under 6 slow requests never shed a 429")
	}
}

// TestReadyzFlipsDuringDrainStall is the regression for the chaos-driven
// drain window: while a drain-stall fault holds shutdown open, the
// listener is still answering and /readyz must say 503 "draining" — so
// the balancer stops routing — and once the stall clears within the
// drain budget, Run finishes with a clean (nil) drain.
func TestReadyzFlipsDuringDrainStall(t *testing.T) {
	ctx, err := injectorCtx("drain-stall=400ms")
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore()
	loadReleases(t, store, "rel")
	s := New(ctx, store, Config{DrainTimeout: 5 * time.Second})

	runCtx, cancel := context.WithCancel(ctx)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Run(runCtx, ln) }()
	base := "http://" + ln.Addr().String()
	waitUntilServing(t, base)

	if status, body := get(t, base+"/readyz"); status != http.StatusOK {
		t.Fatalf("readyz before drain: status %d, body %s; want 200", status, body)
	}

	cancel()
	// The stall fires before Shutdown, so the listener keeps accepting for
	// ~400ms while the server reports itself draining.
	sawDraining := false
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && !sawDraining {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			break // listener closed: the stall window already ended
		}
		body := make([]byte, 128)
		n, _ := resp.Body.Read(body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable && strings.Contains(string(body[:n]), "draining") {
			sawDraining = true
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !sawDraining {
		t.Fatal("readyz never reported 503 draining during the chaos stall")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v after a stall inside the drain budget; want clean nil drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run hung past the drain stall")
	}
}

// TestReloadUnderConcurrentQueryLoad is the acceptance soak: workers
// hammer /query while the operator flips the release file between two
// generations and reloads repeatedly. Zero requests may fail — every
// answer must be a 200 carrying exactly one generation's sum, never an
// error and never a blend.
func TestReloadUnderConcurrentQueryLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rel.csv")
	v1, v2 := testMatrix(), scaledMatrix(2)
	sums := map[float64]bool{v1.Total(): true, v2.Total(): true}
	writeRelease(t, path, v1)

	store := NewStore()
	if err := store.LoadAll([]LoadSpec{{Name: "rel", Path: path}}); err != nil {
		t.Fatal(err)
	}
	// Capacity far above worker count: this soak asserts zero shed, so
	// admission must never be the bottleneck.
	s := New(context.Background(), store, Config{Capacity: 32, Queue: 64, ReloadToken: "sesame"})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const workers = 6
	stop := make(chan struct{})
	errs := make(chan string, workers*4)
	var served atomic.Int64
	var wg sync.WaitGroup
	q := grid.Query{X1: tcx - 1, Y1: tcy - 1, T1: tct - 1}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(queryURL(ts.URL, q, ""))
				if err != nil {
					errs <- fmt.Sprintf("transport error: %v", err)
					return
				}
				var qr queryResponse
				derr := json.NewDecoder(resp.Body).Decode(&qr)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("status %d", resp.StatusCode)
					return
				}
				if derr != nil {
					errs <- fmt.Sprintf("decode: %v", derr)
					return
				}
				if !sums[qr.Sum] {
					errs <- fmt.Sprintf("sum %g is neither generation (%g / %g)", qr.Sum, v1.Total(), v2.Total())
					return
				}
				served.Add(1)
			}
		}()
	}

	for i := 0; i < 25; i++ {
		m := v1
		if i%2 == 0 {
			m = v2
		}
		writeRelease(t, path, m)
		if status, body := postReload(t, ts.URL, "sesame"); status != http.StatusOK {
			t.Errorf("reload %d: status %d, body %s", i, status, body)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("query worker: %s", e)
	}
	if served.Load() == 0 {
		t.Fatal("soak served zero queries; the load half of the test never ran")
	}
	t.Logf("soak: %d queries answered across 25 reloads with zero failures", served.Load())
}
