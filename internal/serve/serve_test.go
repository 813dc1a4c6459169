package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/grid/gridtest"
)

const (
	tcx = 8
	tcy = 6
	tct = 10
)

// testMatrix fills an 8x6x10 matrix with a deterministic pattern.
func testMatrix() *grid.Matrix {
	m := grid.NewMatrix(tcx, tcy, tct)
	for i := 0; i < m.Len(); i++ {
		m.Data()[i] = float64(i % 13)
	}
	return m
}

// loadReleases writes testMatrix() to one release file per name and
// loads them into store as its whole spec set.
func loadReleases(t *testing.T, store *Store, names ...string) {
	t.Helper()
	dir := t.TempDir()
	specs := make([]LoadSpec, len(names))
	for i, n := range names {
		specs[i] = LoadSpec{Name: n, Path: filepath.Join(dir, n+".csv")}
		writeRelease(t, specs[i].Path, testMatrix())
	}
	if err := store.LoadAll(specs); err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
}

// newTestServer builds a server over one release named "rel" and wraps
// it in httptest. The base context may carry a fault injector.
func newTestServer(t *testing.T, ctx context.Context, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	store := NewStore()
	loadReleases(t, store, "rel")
	s := New(ctx, store, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp.StatusCode, body
}

func queryURL(base string, q grid.Query, extra string) string {
	u := fmt.Sprintf("%s/query?d=rel&x0=%d&x1=%d&y0=%d&y1=%d&t0=%d&t1=%d",
		base, q.X0, q.X1, q.Y0, q.Y1, q.T0, q.T1)
	if extra != "" {
		u += "&" + extra
	}
	return u
}

// TestQueryEdgeCaseValidation drives the server's request validation
// with the same shared table the grid and query layers use: strict mode
// must 400 exactly the non-StrictOK cases, clip mode must 400 exactly
// the non-ClipOK cases and answer the clipped sum otherwise.
func TestQueryEdgeCaseValidation(t *testing.T) {
	_, ts := newTestServer(t, context.Background(), Config{})
	m := testMatrix()
	for _, c := range gridtest.Cases(tcx, tcy, tct) {
		t.Run(c.Name+"/strict", func(t *testing.T) {
			status, body := get(t, queryURL(ts.URL, c.In, ""))
			if c.StrictOK && status != http.StatusOK {
				t.Fatalf("status %d, body %s; want 200", status, body)
			}
			if !c.StrictOK && status != http.StatusBadRequest {
				t.Fatalf("status %d, body %s; want 400", status, body)
			}
			if c.StrictOK {
				var qr queryResponse
				if err := json.Unmarshal(body, &qr); err != nil {
					t.Fatal(err)
				}
				if want := m.RangeSum(c.In); qr.Sum != want {
					t.Errorf("sum %g, want %g", qr.Sum, want)
				}
				if qr.Cells != c.In.Volume() {
					t.Errorf("cells %d, want %d", qr.Cells, c.In.Volume())
				}
			}
		})
		t.Run(c.Name+"/clip", func(t *testing.T) {
			status, body := get(t, queryURL(ts.URL, c.In, "clip=1"))
			if c.ClipOK && status != http.StatusOK {
				t.Fatalf("status %d, body %s; want 200", status, body)
			}
			if !c.ClipOK && status != http.StatusBadRequest {
				t.Fatalf("status %d, body %s; want 400", status, body)
			}
			if c.ClipOK {
				var qr queryResponse
				if err := json.Unmarshal(body, &qr); err != nil {
					t.Fatal(err)
				}
				if qr.Query != c.Clipped {
					t.Errorf("answered query %+v, want %+v", qr.Query, c.Clipped)
				}
				if want := m.RangeSum(c.Clipped); qr.Sum != want {
					t.Errorf("sum %g, want %g", qr.Sum, want)
				}
			}
		})
	}
}

// TestQueryParamValidation: malformed parameters must be refused with
// 400 — missing bounds, non-integers, floats, non-finite spellings,
// overflow, bad clip and timeout values, unknown datasets.
func TestQueryParamValidation(t *testing.T) {
	_, ts := newTestServer(t, context.Background(), Config{})
	ok := "x0=0&x1=1&y0=0&y1=1&t0=0&t1=1"
	cases := map[string]string{
		"missing-x1":      "x0=0&y0=0&y1=1&t0=0&t1=1",
		"float-bound":     "x0=0.5&x1=1&y0=0&y1=1&t0=0&t1=1",
		"nan-bound":       "x0=NaN&x1=1&y0=0&y1=1&t0=0&t1=1",
		"inf-bound":       "x0=Inf&x1=1&y0=0&y1=1&t0=0&t1=1",
		"overflow-bound":  "x0=99999999999999999999&x1=1&y0=0&y1=1&t0=0&t1=1",
		"garbage-bound":   "x0=left&x1=1&y0=0&y1=1&t0=0&t1=1",
		"empty-bound":     "x0=&x1=1&y0=0&y1=1&t0=0&t1=1",
		"bad-clip":        ok + "&clip=maybe",
		"bad-timeout":     ok + "&timeout=fast",
		"negative-tmout":  ok + "&timeout=-5s",
		"unknown-dataset": ok + "&d=nope",
	}
	for name, params := range cases {
		t.Run(name, func(t *testing.T) {
			u := ts.URL + "/query?" + params
			if name != "unknown-dataset" {
				u += "&d=rel"
			}
			status, body := get(t, u)
			if status != http.StatusBadRequest {
				t.Errorf("status %d, body %s; want 400", status, body)
			}
			var eb errorBody
			if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
				t.Errorf("error body %q is not structured", body)
			}
		})
	}
}

// TestTimeoutParamClampedToMax: a client asking for more than MaxTimeout
// gets the cap, not an error — verified by a slow fault that outlasts
// the cap but not the request.
func TestTimeoutParamClamped(t *testing.T) {
	ctx, err := injectorCtx("slow=200ms")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, ctx, Config{MaxTimeout: 50 * time.Millisecond})
	q := grid.Query{X1: 1, Y1: 1, T1: 1}
	start := time.Now()
	status, _ := get(t, queryURL(ts.URL, q, "timeout=1h"))
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (cap must override the 1h ask)", status)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("request took %s; the 1h timeout was honoured instead of the cap", el)
	}
}

// TestDefaultDeadline: without ?timeout= the server default applies.
func TestDefaultDeadline(t *testing.T) {
	ctx, err := injectorCtx("slow=10s")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, ctx, Config{DefaultTimeout: 30 * time.Millisecond})
	status, body := get(t, queryURL(ts.URL, grid.Query{X1: 1, Y1: 1, T1: 1}, ""))
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, body %s; want 504", status, body)
	}
}

// TestHealthAndDatasets covers the operational endpoints.
func TestHealthAndDatasets(t *testing.T) {
	s, ts := newTestServer(t, context.Background(), Config{})
	if status, _ := get(t, ts.URL+"/healthz"); status != http.StatusOK {
		t.Errorf("healthz %d, want 200", status)
	}
	if status, _ := get(t, ts.URL+"/readyz"); status != http.StatusOK {
		t.Errorf("readyz %d, want 200", status)
	}
	status, body := get(t, ts.URL+"/datasets")
	if status != http.StatusOK {
		t.Fatalf("datasets %d, want 200", status)
	}
	var resp struct {
		Datasets []datasetInfo `json:"datasets"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Datasets) != 1 || resp.Datasets[0].Name != "rel" ||
		resp.Datasets[0].Cx != tcx || resp.Datasets[0].Cy != tcy || resp.Datasets[0].Ct != tct {
		t.Errorf("datasets = %+v", resp.Datasets)
	}
	// Readiness flips during drain.
	s.draining.Store(true)
	if status, _ := get(t, ts.URL+"/readyz"); status != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining %d, want 503", status)
	}
	if status, _ := get(t, ts.URL+"/healthz"); status != http.StatusOK {
		t.Errorf("healthz while draining %d, want 200 (liveness is not readiness)", status)
	}
}

// TestDefaultDatasetResolution: with one release loaded, d= may be
// omitted; ambiguity (two releases) is a 400 naming the choices.
func TestDefaultDatasetResolution(t *testing.T) {
	store := NewStore()
	loadReleases(t, store, "only")
	s := New(context.Background(), store, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, body := get(t, ts.URL+"/query?x0=0&x1=1&y0=0&y1=1&t0=0&t1=1")
	if status != http.StatusOK {
		t.Fatalf("single-release default: %d %s", status, body)
	}
	loadReleases(t, store, "only", "second")
	status, body = get(t, ts.URL+"/query?x0=0&x1=1&y0=0&y1=1&t0=0&t1=1")
	if status != http.StatusBadRequest {
		t.Fatalf("ambiguous default: %d, want 400", status)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"only", "second"} {
		if !strings.Contains(eb.Error, want) {
			t.Errorf("ambiguity error %q does not name release %q", eb.Error, want)
		}
	}
}

// TestQueryEncodingRoundTrip: the answered query in the response body
// reparses into the same bounds — analysts script against this.
func TestQueryEncodingRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, context.Background(), Config{})
	in := grid.Query{X0: 1, X1: 4, Y0: 2, Y1: 5, T0: 3, T1: 7}
	status, body := get(t, queryURL(ts.URL, in, ""))
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Query != in {
		t.Errorf("round-tripped query %+v, want %+v", qr.Query, in)
	}
	if _, err := url.Parse(queryURL(ts.URL, qr.Query, "")); err != nil {
		t.Errorf("answered query does not re-encode: %v", err)
	}
}
