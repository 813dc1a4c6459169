package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/resilience"
)

// The HTTP chaos suite: real server, real clients, injected faults and
// real SIGKILLed worker processes. Every drill ends the same way — the
// journal holds exactly one canonical value per cell — because cells
// are idempotent and the coordinator refuses everything else.

const (
	distChildEnv  = "STPT_DIST_WORKER_CHILD"
	distAddrEnv   = "STPT_DIST_ADDR"
	distStallEnv  = "STPT_DIST_STALL_KEY"
	distMarkerEnv = "STPT_DIST_MARKER"
)

// fakeExec is the deterministic fake workload: value depends only on
// the key, like real experiment cells.
func fakeExec(ctx context.Context, key string) ([]byte, error) {
	return cellValue(key), nil
}

// newTestServer starts a coordinator + HTTP server over n fake cells.
func newTestServer(t *testing.T, ctx context.Context, n int, ttl time.Duration) (*Coordinator, *Server) {
	t.Helper()
	cfg := Config{
		Experiment:  "chaos",
		Keys:        testKeys(n),
		Spec:        json.RawMessage(`{}`),
		TTL:         ttl,
		MaxAttempts: 5,
		Journal:     journal.NewMemoryCheckpoint(),
		Logf:        t.Logf,
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(ctx, c, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return c, srv
}

func newTestClient(t *testing.T, srv *Server, worker string) *Client {
	t.Helper()
	return &Client{
		Base:   "http://" + srv.Addr(),
		Worker: worker,
		Poll:   20 * time.Millisecond,
		Retry: resilience.Policy{
			MaxAttempts: 8,
			BaseDelay:   20 * time.Millisecond,
			MaxDelay:    100 * time.Millisecond,
			MaxElapsed:  20 * time.Second,
		},
		Logf: t.Logf,
	}
}

func joinAndRun(t *testing.T, ctx context.Context, c *Client, exec Execute) int {
	t.Helper()
	if _, err := c.Join(ctx); err != nil {
		t.Fatalf("%s: join: %v", c.Worker, err)
	}
	n, err := c.Run(ctx, exec)
	if err != nil {
		t.Fatalf("%s: run: %v", c.Worker, err)
	}
	return n
}

func assertJournalComplete(t *testing.T, c *Coordinator) {
	t.Helper()
	if dead := c.Dead(); len(dead) > 0 {
		t.Fatalf("dead cells: %v", dead)
	}
	for _, key := range c.cfg.Keys {
		var got json.RawMessage
		if !c.cfg.Journal.Lookup(key, &got) {
			t.Fatalf("journal is missing %s", key)
		}
		if want := cellValue(key); !bytes.Equal(got, want) {
			t.Fatalf("journal[%s] = %s, want %s", key, got, want)
		}
	}
}

func TestHTTPSweepTwoWorkers(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c, srv := newTestServer(t, ctx, 12, time.Minute)
	done := make(chan int, 2)
	for _, w := range []string{"alpha", "beta"} {
		cl := newTestClient(t, srv, w)
		go func() { done <- joinAndRun(t, ctx, cl, fakeExec) }()
	}
	total := <-done + <-done
	if total != 12 {
		t.Fatalf("workers delivered %d cells, want 12", total)
	}
	if err := c.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	assertJournalComplete(t, c)
}

// TestFaultDistLeaseRetried: transient lease-handler failures (503) are
// retried by the worker and the sweep still drains.
func TestFaultDistLeaseRetried(t *testing.T) {
	var fails atomic.Int32
	fails.Store(3)
	inj := resilience.NewInjector().On(resilience.FaultDistLease, func(context.Context, any) error {
		if fails.Add(-1) >= 0 {
			return fmt.Errorf("synthetic lease outage")
		}
		return nil
	})
	ctx, cancel := context.WithTimeout(resilience.WithInjector(context.Background(), resilience.NewInjector()), 30*time.Second)
	defer cancel()
	// The injector must be the one with the hook.
	ctx = resilience.WithInjector(ctx, inj)
	c, srv := newTestServer(t, ctx, 4, time.Minute)
	cl := newTestClient(t, srv, "solo")
	if n := joinAndRun(t, ctx, cl, fakeExec); n != 4 {
		t.Fatalf("delivered %d, want 4", n)
	}
	if inj.Fired(resilience.FaultDistLease) < 4 {
		t.Fatalf("lease fault fired %d times", inj.Fired(resilience.FaultDistLease))
	}
	assertJournalComplete(t, c)
}

// TestFaultDistResultDroppedPreDurability: the result handler fails
// after decoding but before journaling. The upload is lost pre-
// durability, the worker retries, and the journal records the cell
// exactly once — the durable-before-ack contract under a flaky link.
func TestFaultDistResultDroppedPreDurability(t *testing.T) {
	var drops atomic.Int32
	drops.Store(2)
	inj := resilience.NewInjector().On(resilience.FaultDistResult, func(_ context.Context, payload any) error {
		if payload.(string) == "row/alg/rep0" && drops.Add(-1) >= 0 {
			return fmt.Errorf("synthetic upload drop")
		}
		return nil
	})
	ctx, cancel := context.WithTimeout(resilience.WithInjector(context.Background(), inj), 30*time.Second)
	defer cancel()
	c, srv := newTestServer(t, ctx, 3, time.Minute)
	var execs atomic.Int32
	exec := func(ctx context.Context, key string) ([]byte, error) {
		if key == "row/alg/rep0" {
			execs.Add(1)
		}
		return cellValue(key), nil
	}
	cl := newTestClient(t, srv, "solo")
	if n := joinAndRun(t, ctx, cl, exec); n != 3 {
		t.Fatalf("delivered %d, want 3", n)
	}
	// The retries were pure upload retries under the same lease: the
	// cell itself ran once.
	if got := execs.Load(); got != 1 {
		t.Fatalf("rep0 executed %d times, want 1", got)
	}
	if drops.Load() > 0 {
		t.Fatalf("upload drop hook never exhausted (%d left)", drops.Load())
	}
	assertJournalComplete(t, c)
}

// TestHeartbeatPartitionReassignsCell: a worker whose heartbeats are
// all dropped (simulated network partition) loses its lease mid-cell;
// the cell is reassigned and completed by a healthy worker, and the
// partitioned worker's late, deliberately poisoned result is refused —
// proving refusal, not just coincidental equality.
func TestHeartbeatPartitionReassignsCell(t *testing.T) {
	inj := resilience.NewInjector().On(resilience.FaultDistHeartbeat, func(_ context.Context, payload any) error {
		if payload.(string) == "slow" {
			return fmt.Errorf("synthetic partition")
		}
		return nil
	})
	ctx, cancel := context.WithTimeout(resilience.WithInjector(context.Background(), inj), 30*time.Second)
	defer cancel()
	c, srv := newTestServer(t, ctx, 1, 300*time.Millisecond)

	stalled := make(chan struct{})
	release := make(chan struct{})
	slowExec := func(ctx context.Context, key string) ([]byte, error) {
		close(stalled)
		select {
		case <-release:
		case <-ctx.Done():
			// Lease-loss cancellation also releases the stall; either
			// path returns the poisoned value to prove it gets refused.
		}
		return []byte(`{"poisoned":true}`), nil
	}
	slow := newTestClient(t, srv, "slow")
	slowDone := make(chan int, 1)
	go func() { slowDone <- joinAndRun(t, ctx, slow, slowExec) }()

	// Wait until the partitioned worker holds the only cell, then let a
	// healthy worker take over after the TTL lapses.
	select {
	case <-stalled:
	case <-ctx.Done():
		t.Fatal("slow worker never started the cell")
	}
	fast := newTestClient(t, srv, "fast")
	if n := joinAndRun(t, ctx, fast, fakeExec); n != 1 {
		t.Fatalf("fast worker delivered %d cells, want the reassigned one", n)
	}
	close(release)
	if n := <-slowDone; n != 0 {
		t.Fatalf("partitioned worker delivered %d cells, want 0", n)
	}
	if err := c.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	assertJournalComplete(t, c) // canonical value, not the poisoned one
	if inj.Fired(resilience.FaultDistHeartbeat) == 0 {
		t.Fatal("partition hook never fired — heartbeats not exercised")
	}
}

// spawnWorkerChild re-execs this test binary as a real worker process.
func spawnWorkerChild(t *testing.T, addr, stallKey, marker string) (*exec.Cmd, chan error, *bytes.Buffer) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestDistWorkerChild$")
	cmd.Env = append(os.Environ(),
		distChildEnv+"=1", distAddrEnv+"="+addr,
		distStallEnv+"="+stallKey, distMarkerEnv+"="+marker)
	var childLog bytes.Buffer
	cmd.Stdout, cmd.Stderr = &childLog, &childLog
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	return cmd, done, &childLog
}

func waitForMarker(t *testing.T, marker string, done chan error, childLog *bytes.Buffer, cmd *exec.Cmd) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(marker); err == nil {
			return
		}
		select {
		case err := <-done:
			t.Fatalf("child exited before reaching the kill point (%v)\n%s", err, childLog.String())
		default:
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("child never reached the kill point\n%s", childLog.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDistWorkerChild is the re-exec child: a real worker process that
// stalls forever on one designated cell (after dropping a marker file)
// so the parent can SIGKILL it mid-cell.
func TestDistWorkerChild(t *testing.T) {
	if os.Getenv(distChildEnv) == "" {
		t.Skip("not a dist worker child")
	}
	addr, stallKey, marker := os.Getenv(distAddrEnv), os.Getenv(distStallEnv), os.Getenv(distMarkerEnv)
	cl := &Client{Base: "http://" + addr, Worker: "victim", Poll: 20 * time.Millisecond, Retry: SweepRetryPolicy()}
	ctx := context.Background()
	if _, err := cl.Join(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "child join:", err)
		os.Exit(3)
	}
	_, err := cl.Run(ctx, func(ctx context.Context, key string) ([]byte, error) {
		if key == stallKey {
			if err := os.WriteFile(marker, []byte(key), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "child marker:", err)
				os.Exit(3)
			}
			select {} // hang mid-cell until SIGKILLed
		}
		return cellValue(key), nil
	})
	fmt.Fprintln(os.Stderr, "child ran to completion without stalling, Run:", err)
	os.Exit(3)
}

// TestWorkerSIGKILLMidCell: a real worker process is SIGKILLed while
// executing a cell. Its lease expires (no heartbeats from a corpse),
// the cell is reassigned, and a healthy in-process worker finishes the
// sweep with the journal complete and canonical.
func TestWorkerSIGKILLMidCell(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c, srv := newTestServer(t, ctx, 6, 300*time.Millisecond)
	stallKey := "row/alg/rep2"
	marker := filepath.Join(t.TempDir(), "stalled")

	cmd, done, childLog := spawnWorkerChild(t, srv.Addr(), stallKey, marker)
	waitForMarker(t, marker, done, childLog, cmd)
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-done
	t.Logf("child killed mid-cell on %s\n%s", stallKey, childLog.String())

	// A healthy worker joins after the crash and drains the rest,
	// including the orphaned cell once its lease lapses.
	survivor := newTestClient(t, srv, "survivor")
	if n := joinAndRun(t, ctx, survivor, fakeExec); n < 1 {
		t.Fatalf("survivor delivered %d cells", n)
	}
	if err := c.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	assertJournalComplete(t, c)
}

// TestWorkerSIGKILLMidUpload: the kill lands while the worker's result
// upload is in flight — decoded by the coordinator but not yet durable.
// The hook holds the handler until the worker is dead, then drops the
// upload, so the value must NOT be journaled from the corpse; the cell
// is reassigned and journaled exactly once by the survivor.
func TestWorkerSIGKILLMidUpload(t *testing.T) {
	stallKey := "row/alg/rep0"
	marker := filepath.Join(t.TempDir(), "uploading")
	childDead := make(chan struct{})
	var held atomic.Int32
	inj := resilience.NewInjector().On(resilience.FaultDistResult, func(_ context.Context, payload any) error {
		if payload.(string) == stallKey && held.Add(1) == 1 {
			// First upload of the stall cell: signal the parent, wait for
			// the kill, then drop the request pre-durability.
			if err := os.WriteFile(marker, []byte(stallKey), 0o644); err != nil {
				return err
			}
			<-childDead
			return fmt.Errorf("upload dropped at kill")
		}
		return nil
	})
	ctx, cancel := context.WithTimeout(resilience.WithInjector(context.Background(), inj), 60*time.Second)
	defer cancel()
	c, srv := newTestServer(t, ctx, 4, 300*time.Millisecond)

	// The child stalls on a key it never reaches (the hook intercepts
	// rep0's upload first), so its exec is all-normal.
	cmd, done, childLog := spawnWorkerChild(t, srv.Addr(), "never/never/rep9", marker)
	waitForMarker(t, marker, done, childLog, cmd)
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-done
	close(childDead)
	t.Logf("child killed mid-upload of %s\n%s", stallKey, childLog.String())
	if c.cfg.Journal.Lookup(stallKey, nil) {
		t.Fatalf("%s journaled from a dead worker's dropped upload", stallKey)
	}

	survivor := newTestClient(t, srv, "survivor")
	joinAndRun(t, ctx, survivor, fakeExec)
	if err := c.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	assertJournalComplete(t, c)
}

// TestServeRejectsGarbage covers the wire hygiene the fuzzer probes
// from the other side: malformed bodies are 400s, not crashes.
func TestServeRejectsGarbage(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, srv := newTestServer(t, ctx, 1, time.Minute)
	cl := newTestClient(t, srv, "probe")
	for _, body := range []any{nil, "not an object", map[string]any{"worker": ""}} {
		if _, err := cl.post(ctx, resilience.Policy{}, "/lease", body); err == nil {
			t.Errorf("lease body %v accepted", body)
		}
	}
	if _, err := cl.post(ctx, resilience.Policy{}, "/result", Result{Worker: "w", LeaseID: "x", Key: "k"}); err == nil {
		t.Error("result with neither value nor err accepted")
	}
	if _, err := cl.post(ctx, resilience.Policy{}, "/heartbeat", Heartbeat{Worker: "w"}); err == nil {
		t.Error("heartbeat without lease/key accepted")
	}
}
