package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// buildPipelineBin compiles the real binary once per test dir.
func buildPipelineBin(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "stpt-pipeline")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// cliFeed renders one reading per (x,y,t) cell on a 2×2 grid over tMax
// intervals.
func cliFeed(tMax int) string {
	var sb strings.Builder
	for ti := 0; ti < tMax; ti++ {
		for y := 0; y < 2; y++ {
			for x := 0; x < 2; x++ {
				fmt.Fprintf(&sb, "%d,%d,%d,%g\n", x, y, ti, float64(1+x+2*y+4*ti)/4)
			}
		}
	}
	return sb.String()
}

// TestOneShotPublishesEveryWindow builds the binary and drives a full
// stream through one-shot mode: all four windows land, latest.csv is
// the newest, and a re-run over the same WAL is a clean no-op.
func TestOneShotPublishesEveryWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binary")
	}
	dir := t.TempDir()
	bin := buildPipelineBin(t, dir)

	input := filepath.Join(dir, "readings.csv")
	if err := os.WriteFile(input, []byte(cliFeed(12)), 0o644); err != nil {
		t.Fatal(err)
	}
	empty := filepath.Join(dir, "empty.csv")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out")
	run := func(in string) (string, error) {
		cmd := exec.Command(bin,
			"-wal", filepath.Join(dir, "feed.wal"), "-grid", "2", "-t", "12",
			"-window", "3", "-in", in, "-out", out,
			"-ledger", filepath.Join(dir, "budget.ledger"),
			"-eps-node", "0.5", "-budget", "4", "-seed", "42")
		var buf bytes.Buffer
		cmd.Stdout, cmd.Stderr = &buf, &buf
		err := cmd.Run()
		return buf.String(), err
	}

	log, err := run(input)
	if err != nil {
		t.Fatalf("one-shot run failed: %v\n%s", err, log)
	}
	if !strings.Contains(log, "4 windows published") {
		t.Fatalf("one-shot output: %s", log)
	}
	var windows [4][]byte
	for w := 1; w <= 4; w++ {
		b, err := os.ReadFile(filepath.Join(out, fmt.Sprintf("window-%06d.csv", w)))
		if err != nil {
			t.Fatalf("window %d missing: %v", w, err)
		}
		windows[w-1] = b
	}
	latest, err := os.ReadFile(filepath.Join(out, "latest.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(latest, windows[3]) {
		t.Fatal("latest.csv is not the newest window")
	}

	// Same WAL, nothing new to say: the manifest resumes at the tip and
	// publishes nothing — the files do not change.
	log, err = run(empty)
	if err != nil {
		t.Fatalf("idle re-run failed: %v\n%s", err, log)
	}
	if !strings.Contains(log, "manifest resumes at window 4, state reloaded") {
		t.Fatalf("re-run did not resume from the manifest: %s", log)
	}
	again, err := os.ReadFile(filepath.Join(out, "window-000004.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, windows[3]) {
		t.Fatal("idle re-run rewrote a published window")
	}
}

// daemon is one stpt-pipeline process in daemon mode over the 2×2×12
// stream, with its combined output.
type daemon struct {
	t    *testing.T
	cmd  *exec.Cmd
	base string
	log  bytes.Buffer
	done chan error
}

// startDaemon launches the binary in daemon mode on a free port (extra
// flags appended) and waits until it answers /healthz.
func startDaemon(t *testing.T, bin, dir string, extra ...string) *daemon {
	t.Helper()
	// Grab a free port; the tiny reuse window is fine for a smoke test.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	d := &daemon{t: t, base: "http://" + addr, done: make(chan error, 1)}
	d.cmd = exec.Command(bin, append([]string{
		"-wal", filepath.Join(dir, "feed.wal"), "-grid", "2", "-t", "12",
		"-window", "3", "-listen", addr, "-token", "s3cret",
		"-out", filepath.Join(dir, "out"),
		"-ledger", filepath.Join(dir, "budget.ledger"),
		"-eps-node", "0.5", "-budget", "4", "-seed", "42",
		"-interval", "50ms",
	}, extra...)...)
	d.cmd.Stdout, d.cmd.Stderr = &d.log, &d.log
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { d.done <- d.cmd.Wait() }()
	t.Cleanup(func() { d.cmd.Process.Kill() })
	d.waitFor("daemon to listen", func() bool {
		resp, err := http.Get(d.base + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
	return d
}

// waitFor polls ok for up to 20s, failing fast if the daemon exits.
func (d *daemon) waitFor(desc string, ok func() bool) {
	d.t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !ok() {
		select {
		case err := <-d.done:
			d.t.Fatalf("daemon exited waiting for %s (%v)\n%s", desc, err, d.log.String())
		default:
		}
		if time.Now().After(deadline) {
			d.t.Fatalf("timed out waiting for %s\n%s", desc, d.log.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// ingestFeed POSTs the whole 12-interval feed and waits for all four
// windows to publish.
func (d *daemon) ingestFeed() {
	d.t.Helper()
	req, _ := http.NewRequest(http.MethodPost, d.base+"/ingest", strings.NewReader(cliFeed(12)))
	req.Header.Set("Authorization", "Bearer s3cret")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		d.t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.t.Fatalf("POST /ingest: %d", resp.StatusCode)
	}
	d.waitFor("all four windows to publish", func() bool {
		resp, err := http.Get(d.base + "/status")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		var st struct {
			Published int `json:"published"`
		}
		json.NewDecoder(resp.Body).Decode(&st)
		return st.Published == 4
	})
}

// stop sends sig and requires a clean exit that logged the drain.
func (d *daemon) stop(sig os.Signal) {
	d.t.Helper()
	if err := d.cmd.Process.Signal(sig); err != nil {
		d.t.Fatal(err)
	}
	select {
	case err := <-d.done:
		if err != nil {
			d.t.Fatalf("daemon exit after %v: %v\n%s", sig, err, d.log.String())
		}
	case <-time.After(15 * time.Second):
		d.t.Fatalf("daemon never drained after %v\n%s", sig, d.log.String())
	}
	if !strings.Contains(d.log.String(), "drained") {
		d.t.Fatalf("daemon log: %s", d.log.String())
	}
}

// TestDaemonIngestToPublish runs the binary as the long-lived daemon:
// readings arrive over HTTP, windows publish as their spans complete,
// the reload notifier rings once per window, and SIGINT drains cleanly.
func TestDaemonIngestToPublish(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binary")
	}
	dir := t.TempDir()
	bin := buildPipelineBin(t, dir)

	// Count authenticated reload notifications from the daemon.
	var reloads atomic.Int64
	notify := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.Header.Get("Authorization") != "Bearer sesame" {
			w.WriteHeader(http.StatusForbidden)
			return
		}
		reloads.Add(1)
	}))
	defer notify.Close()

	d := startDaemon(t, bin, dir, "-reload-url", notify.URL, "-reload-token", "sesame")
	d.ingestFeed()
	d.waitFor("four reload notifications", func() bool { return reloads.Load() == 4 })

	resp, err := http.Get(d.base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %d", resp.StatusCode)
	}

	// SIGINT drains: clean exit, windows on disk.
	d.stop(os.Interrupt)
	for w := 1; w <= 4; w++ {
		if _, err := os.Stat(filepath.Join(dir, "out", fmt.Sprintf("window-%06d.csv", w))); err != nil {
			t.Fatalf("window %d missing after drain: %v", w, err)
		}
	}
}

// TestDaemonRefusesToListenWithoutToken: -listen without -token exits 1
// before it opens the WAL or the ledger, since such a daemon would
// refuse every ingest and budget request.
func TestDaemonRefusesToListenWithoutToken(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binary")
	}
	dir := t.TempDir()
	cmd := exec.Command(buildPipelineBin(t, dir),
		"-wal", filepath.Join(dir, "feed.wal"), "-grid", "2", "-t", "12",
		"-window", "3", "-listen", "127.0.0.1:0", "-out", filepath.Join(dir, "out"),
		"-ledger", filepath.Join(dir, "budget.ledger"), "-eps-node", "0.5")
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, &buf
	err := cmd.Run()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 || !strings.Contains(buf.String(), "-listen needs -token") {
		t.Fatalf("-listen without -token: %v, want exit 1 naming -token\n%s", err, buf.String())
	}
	for _, name := range []string{"feed.wal", "budget.ledger"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("the refused start created %s (stat: %v)", name, err)
		}
	}
}

// TestDaemonDrainsOnSIGTERM: SIGTERM — what init systems and container
// runtimes send — drains exactly like SIGINT: the HTTP server shuts
// down gracefully and the process exits 0, rather than dying with the
// signal's default disposition mid-request.
func TestDaemonDrainsOnSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binary")
	}
	dir := t.TempDir()
	d := startDaemon(t, buildPipelineBin(t, dir), dir)
	d.ingestFeed()
	d.stop(syscall.SIGTERM)
}

// TestOneShotBudgetExhaustionExitsTwo: a budget too small for the whole
// stream publishes what it can and exits with the dedicated status 2,
// so schedulers can tell a budget refusal from a crash.
func TestOneShotBudgetExhaustionExitsTwo(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binary")
	}
	dir := t.TempDir()
	bin := buildPipelineBin(t, dir)

	input := filepath.Join(dir, "readings.csv")
	if err := os.WriteFile(input, []byte(cliFeed(12)), 0o644); err != nil {
		t.Fatal(err)
	}
	// ε_node 0.5, budget 1.0: windows 1–3 fit (levels 0+1), window 4
	// opens tree level 2 and must be refused.
	cmd := exec.Command(bin,
		"-wal", filepath.Join(dir, "feed.wal"), "-grid", "2", "-t", "12",
		"-window", "3", "-in", input, "-out", filepath.Join(dir, "out"),
		"-ledger", filepath.Join(dir, "budget.ledger"),
		"-eps-node", "0.5", "-budget", "1")
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, &buf
	err := cmd.Run()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 2 {
		t.Fatalf("exhausted run: %v, want exit 2\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "budget exhausted after 3 windows") {
		t.Fatalf("exhaustion output: %s", buf.String())
	}
	for w := 1; w <= 3; w++ {
		if _, err := os.Stat(filepath.Join(dir, "out", fmt.Sprintf("window-%06d.csv", w))); err != nil {
			t.Fatalf("window %d vanished on refusal: %v", w, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "out", "window-000004.csv")); err == nil {
		t.Fatal("refused window 4 was published anyway")
	}
}

// oneShot runs the binary in one-shot mode over in, keeping the WAL,
// ledger and releases of this run under dir/name.
func oneShot(t *testing.T, bin, dir, name, in string, extra ...string) (string, error) {
	t.Helper()
	root := filepath.Join(dir, name)
	if err := os.MkdirAll(root, 0o755); err != nil {
		t.Fatal(err)
	}
	args := append([]string{
		"-wal", filepath.Join(root, "feed.wal"), "-grid", "2", "-t", "12",
		"-window", "3", "-in", in, "-out", filepath.Join(root, "out"),
		"-ledger", filepath.Join(root, "budget.ledger"),
		"-eps-node", "0.5", "-budget", "4", "-seed", "42",
	}, extra...)
	cmd := exec.Command(bin, args...)
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, &buf
	err := cmd.Run()
	return buf.String(), err
}

// publishedFiles reads every file a run published under dir/name/out.
func publishedFiles(t *testing.T, dir, name string) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, name, "out", "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		files[filepath.Base(p)] = b
	}
	return files
}

// samePublication fails unless want is a full four-window publication
// and got holds exactly its files, byte for byte.
func samePublication(t *testing.T, got, want map[string][]byte) {
	t.Helper()
	if len(want) != 5 {
		t.Fatalf("reference run published %d files, want 4 windows + latest.csv", len(want))
	}
	if len(got) != len(want) {
		t.Fatalf("published %d files, want %d", len(got), len(want))
	}
	for name, b := range want {
		if !bytes.Equal(got[name], b) {
			t.Fatalf("%s differs from the reference run", name)
		}
	}
}

// TestOneShotDeadLetter: malformed lines in the feed land in the
// -dead-letter file, one {line, reason, raw} record each, and the
// published windows are byte-identical to a run over the clean feed.
func TestOneShotDeadLetter(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binary")
	}
	dir := t.TempDir()
	bin := buildPipelineBin(t, dir)

	// 48 clean lines (and a trailing ""), with bad ones spliced in at
	// these 1-based line numbers of the dirty feed.
	clean := strings.SplitAfter(cliFeed(12), "\n")
	bad := map[int]string{
		3:  "bad,line",
		20: "0,0,99,1.5",
		51: "1,1,1,-2",
	}
	var dirty strings.Builder
	for line, next := 1, 0; line <= 48+len(bad); line++ {
		if raw, ok := bad[line]; ok {
			dirty.WriteString(raw + "\n")
			continue
		}
		dirty.WriteString(clean[next])
		next++
	}
	cleanPath := filepath.Join(dir, "clean.csv")
	dirtyPath := filepath.Join(dir, "dirty.csv")
	if err := os.WriteFile(cleanPath, []byte(cliFeed(12)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dirtyPath, []byte(dirty.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	if log, err := oneShot(t, bin, dir, "clean", cleanPath); err != nil {
		t.Fatalf("clean run: %v\n%s", err, log)
	}
	deadPath := filepath.Join(dir, "dead.jsonl")
	log, err := oneShot(t, bin, dir, "dirty", dirtyPath, "-dead-letter", deadPath)
	if err != nil {
		t.Fatalf("dirty run: %v\n%s", err, log)
	}
	if !strings.Contains(log, "accepted 48, quarantined 3") {
		t.Fatalf("dirty run output: %s", log)
	}

	raw, err := os.ReadFile(deadPath)
	if err != nil {
		t.Fatal(err)
	}
	recs := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(recs) != len(bad) {
		t.Fatalf("dead letter holds %d records, want %d:\n%s", len(recs), len(bad), raw)
	}
	for _, rec := range recs {
		var r struct {
			Line   int    `json:"line"`
			Reason string `json:"reason"`
			Raw    string `json:"raw"`
		}
		if err := json.Unmarshal([]byte(rec), &r); err != nil {
			t.Fatalf("dead-letter record %q: %v", rec, err)
		}
		if bad[r.Line] != r.Raw || r.Reason == "" {
			t.Fatalf("dead-letter record %+v does not match the feed's bad line %d", r, r.Line)
		}
	}
	samePublication(t, publishedFiles(t, dir, "dirty"), publishedFiles(t, dir, "clean"))
}

// TestOneShotHTTPSource: an http:// -in is fetched with bounded retries.
// A 503 with Retry-After is waited out, and the windows match the
// file-input run byte for byte; a 404 fails fast with a non-zero exit
// and publishes nothing.
func TestOneShotHTTPSource(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binary")
	}
	dir := t.TempDir()
	bin := buildPipelineBin(t, dir)

	feed := cliFeed(12)
	var fetches atomic.Int64
	src := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path != "/feed.csv":
			http.NotFound(w, r)
		case fetches.Add(1) == 1:
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
		default:
			io.WriteString(w, feed)
		}
	}))
	defer src.Close()

	filePath := filepath.Join(dir, "readings.csv")
	if err := os.WriteFile(filePath, []byte(feed), 0o644); err != nil {
		t.Fatal(err)
	}
	if log, err := oneShot(t, bin, dir, "file", filePath); err != nil {
		t.Fatalf("file run: %v\n%s", err, log)
	}
	if log, err := oneShot(t, bin, dir, "http", src.URL+"/feed.csv"); err != nil {
		t.Fatalf("http run: %v\n%s", err, log)
	}
	if n := fetches.Load(); n != 2 {
		t.Fatalf("source fetched %d times, want 2 (one 503, one success)", n)
	}
	samePublication(t, publishedFiles(t, dir, "http"), publishedFiles(t, dir, "file"))

	log, err := oneShot(t, bin, dir, "missing", src.URL+"/missing.csv")
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() == 0 {
		t.Fatalf("404 source: %v, want a non-zero exit\n%s", err, log)
	}
	if got := publishedFiles(t, dir, "missing"); len(got) != 0 {
		t.Fatalf("404 source published %d files", len(got))
	}
}
