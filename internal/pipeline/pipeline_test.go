package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dp"
	"repro/internal/ingest"
)

const (
	tpCx, tpCy, tpCt = 2, 2, 12
	tpWindow         = 3 // → 4 windows over tpCt
)

// feedCSV renders one deterministic reading per (x,y,t) cell up to (and
// excluding) interval tMax.
func feedCSV(tMax int) string {
	var sb strings.Builder
	for t := 0; t < tMax; t++ {
		for y := 0; y < tpCy; y++ {
			for x := 0; x < tpCx; x++ {
				fmt.Fprintf(&sb, "%d,%d,%d,%g\n", x, y, t, float64(1+x+2*y+4*t)/4)
			}
		}
	}
	return sb.String()
}

// newPipeline builds a full stack — ingester, ledger, manifest,
// supervisor — rooted at dir.
func newPipeline(t *testing.T, dir string, cfg Config) (*Supervisor, *ingest.Ingester) {
	t.Helper()
	in, err := ingest.New(ingest.Config{Cx: tpCx, Cy: tpCy, Ct: tpCt, BatchSize: 8},
		filepath.Join(dir, "feed.wal"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { in.Close() })
	led, err := dp.OpenLedger(filepath.Join(dir, "ledger"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { led.Close() })
	man, err := OpenManifest(filepath.Join(dir, "manifest"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { man.Close() })
	if cfg.Dataset == "" {
		cfg.Dataset = "stream"
	}
	if cfg.EpsNode == 0 {
		cfg.EpsNode = 0.5
	}
	if cfg.Window == 0 {
		cfg.Window = tpWindow
	}
	if cfg.OutDir == "" {
		cfg.OutDir = filepath.Join(dir, "out")
	}
	cfg.Seed = 42
	s, err := New(cfg, in, led, man)
	if err != nil {
		t.Fatal(err)
	}
	return s, in
}

func ingestCSV(t *testing.T, in *ingest.Ingester, csv string) {
	t.Helper()
	if _, _, err := in.Ingest(context.Background(), strings.NewReader(csv)); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineEndToEnd drives a full stream through every lifecycle
// stage: all four windows publish, the notifier rings once per window,
// the spend is the tree bound, and latest.csv is the newest window.
func TestPipelineEndToEnd(t *testing.T) {
	dir := t.TempDir()
	var notified atomic.Int64
	s, in := newPipeline(t, dir, Config{
		Notifier: NotifierFunc(func(context.Context) error { notified.Add(1); return nil }),
	})
	ingestCSV(t, in, feedCSV(tpCt))
	if err := s.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}

	st := s.Status()
	if st.Published != 4 || st.LastWindow != 4 || st.State != StateReloaded {
		t.Fatalf("status after run: %+v", st)
	}
	if notified.Load() != 4 {
		t.Fatalf("notifier rang %d times, want 4", notified.Load())
	}
	// 4 windows → 3 tree levels → ε = 3 · 0.5, nothing linear in n.
	if want := 1.5; st.Spent != want {
		t.Fatalf("spent %v, want %v", st.Spent, want)
	}
	for w := 1; w <= 4; w++ {
		if _, err := os.Stat(s.windowPath(w)); err != nil {
			t.Fatalf("window %d not published: %v", w, err)
		}
	}
	last, err := os.ReadFile(s.windowPath(4))
	if err != nil {
		t.Fatal(err)
	}
	latest, err := os.ReadFile(s.latestPath())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(last, latest) {
		t.Fatal("latest.csv is not the newest window")
	}
	// Settled windows' staging is swept.
	ents, err := os.ReadDir(filepath.Join(dir, "out", "staging"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("staging holds %d leftovers after completion", len(ents))
	}
	// Further runs are a no-op: the stream is fully published.
	if err := s.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := s.Status(); got.Published != 4 {
		t.Fatalf("idle re-run changed state: %+v", got)
	}
}

// TestPipelineDeterministicAcrossRuns: two independent stacks fed the
// same readings with the same seed publish byte-identical releases —
// the property crash recovery's redo-the-stage design rests on.
func TestPipelineDeterministicAcrossRuns(t *testing.T) {
	outs := make([][]byte, 2)
	for i := range outs {
		dir := t.TempDir()
		s, in := newPipeline(t, dir, Config{})
		ingestCSV(t, in, feedCSV(tpCt))
		if err := s.RunOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
		var all bytes.Buffer
		for w := 1; w <= 4; w++ {
			b, err := os.ReadFile(s.windowPath(w))
			if err != nil {
				t.Fatal(err)
			}
			all.Write(b)
		}
		outs[i] = all.Bytes()
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Fatal("same feed + same seed produced different releases")
	}
}

// TestPipelineWaitsForWindowData: windows cut only when their whole
// span is durably ingested; the rest of the stream publishes later.
func TestPipelineWaitsForWindowData(t *testing.T) {
	s, in := newPipeline(t, t.TempDir(), Config{})
	ctx := context.Background()

	// Feed through t=5: windows 1 ([0,3)) and 2 ([3,6)) are coverable.
	ingestCSV(t, in, feedCSV(6))
	if err := s.RunOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if st := s.Status(); st.Published != 2 {
		t.Fatalf("published %d windows on a half-fed stream, want 2", st.Published)
	}
	if _, err := os.Stat(s.windowPath(3)); err == nil {
		t.Fatal("window 3 published before its data arrived")
	}

	ingestCSV(t, in, feedCSV(tpCt)[len(feedCSV(6)):])
	if err := s.RunOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if st := s.Status(); st.Published != 4 {
		t.Fatalf("published %d windows after the full feed, want 4", st.Published)
	}
}

// TestPipelineRefusesOverflowingCell: two readings of 1e308 for one
// cell are each valid, but their sum makes window 1's cut cell +Inf.
// The release stage must refuse that window, as decoding its staged cut
// would, before anything is charged or published.
func TestPipelineRefusesOverflowingCell(t *testing.T) {
	s, in := newPipeline(t, t.TempDir(), Config{})
	ingestCSV(t, in, feedCSV(tpCt)+"0,0,1,1e308\n0,0,1,1e308\n")
	err := s.RunOnce(context.Background())
	if err == nil {
		t.Fatal("a window with a +Inf cell was released")
	}
	for _, frag := range []string{"window 1", "stage released", "non-finite"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not mention %q", err, frag)
		}
	}
	if st := s.Status(); st.Spent != 0 || st.Published != 0 || st.LastWindow != 1 || st.State != StateCut {
		t.Fatalf("status after the refusal: %+v, want window 1 cut and nothing charged", st)
	}
	for _, path := range []string{s.windowPath(1), s.latestPath()} {
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s written for a refused window (%v)", path, err)
		}
	}
}

// TestPipelineBudgetExhaustionDegradesAndResumes is the graceful-
// degradation acceptance: an exhausted budget stops new publications
// (typed error, /readyz 503) while everything already published stays;
// raising the budget over /-/budget resumes exactly where it stopped.
func TestPipelineBudgetExhaustionDegradesAndResumes(t *testing.T) {
	dir := t.TempDir()
	// ε_node = 0.5, budget = 1.0: windows 1–3 need levels 0 and 1
	// (ε = 1.0); window 4 opens level 2 and must be refused.
	s, in := newPipeline(t, dir, Config{Budget: 1.0})
	ingestCSV(t, in, feedCSV(tpCt))
	ctx := context.Background()

	err := s.RunOnce(ctx)
	if !errors.Is(err, dp.ErrBudgetExhausted) {
		t.Fatalf("RunOnce on a tight budget: %v, want ErrBudgetExhausted", err)
	}
	st := s.Status()
	if !st.BudgetExhausted || st.Published != 3 {
		t.Fatalf("degraded status: %+v, want 3 published + exhausted", st)
	}
	// Published windows keep serving: the files are intact.
	for w := 1; w <= 3; w++ {
		if _, err := os.Stat(s.windowPath(w)); err != nil {
			t.Fatalf("window %d vanished on degradation: %v", w, err)
		}
	}

	// The HTTP surface reports and repairs the condition.
	ts := httptest.NewServer(Handler(s, HandlerConfig{Token: "sesame"}))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready Status
	json.NewDecoder(resp.Body).Decode(&ready)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !ready.BudgetExhausted {
		t.Fatalf("readyz while exhausted: %d %+v, want 503 + budget_exhausted", resp.StatusCode, ready)
	}

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/-/budget", strings.NewReader(`{"budget": 2.0}`))
	req.Header.Set("Authorization", "Bearer sesame")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /-/budget: %d", resp.StatusCode)
	}

	// The raised budget resumes the pending charge automatically.
	if err := s.RunOnce(ctx); err != nil {
		t.Fatal(err)
	}
	st = s.Status()
	if st.Published != 4 || st.BudgetExhausted {
		t.Fatalf("status after raise: %+v, want 4 published", st)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after resume: %d, want 200", resp.StatusCode)
	}
}

// TestPipelineMutationsNeedAToken: a handler configured with no token
// refuses every mutation with the 403 a wrong token gets, so an
// unauthenticated {"budget": 0} cannot lift the budget.
func TestPipelineMutationsNeedAToken(t *testing.T) {
	s, _ := newPipeline(t, t.TempDir(), Config{Budget: 1.5})
	ts := httptest.NewServer(Handler(s, HandlerConfig{}))
	defer ts.Close()

	for _, auth := range []string{"", "Bearer ", "Bearer sesame"} {
		for _, path := range []string{"/-/budget", "/ingest", "/-/compact"} {
			req, _ := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(`{"budget": 0}`))
			if auth != "" {
				req.Header.Set("Authorization", auth)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusForbidden {
				t.Errorf("POST %s with Authorization %q and no configured token: %d, want 403", path, auth, resp.StatusCode)
			}
		}
	}
	if got := s.Status().Budget; got != 1.5 {
		t.Fatalf("budget after unauthenticated POSTs = %g, want 1.5", got)
	}
}

// TestPipelineBudgetEndpointAuth: /-/budget refuses unauthenticated and
// non-POST callers outright.
func TestPipelineBudgetEndpointAuth(t *testing.T) {
	s, _ := newPipeline(t, t.TempDir(), Config{})
	ts := httptest.NewServer(Handler(s, HandlerConfig{Token: "sesame"}))
	defer ts.Close()

	if resp, err := http.Get(ts.URL + "/-/budget"); err != nil || resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /-/budget: %v %d", err, resp.StatusCode)
	}
	resp, err := http.Post(ts.URL+"/-/budget", "application/json", strings.NewReader(`{"budget": 9}`))
	if err != nil || resp.StatusCode != http.StatusForbidden {
		t.Fatalf("unauthenticated POST: %v %d", err, resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/-/budget", strings.NewReader(`{"nope": 1}`))
	req.Header.Set("Authorization", "Bearer sesame")
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: %v %d", err, resp.StatusCode)
	}
}
