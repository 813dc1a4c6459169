package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/journal"
)

// fakeClock lets lease-expiry tests move time without sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("row/alg/rep%d", i)
	}
	return keys
}

func testConfig(t *testing.T, n int) (Config, *fakeClock) {
	t.Helper()
	clock := newFakeClock()
	return Config{
		Experiment:  "test",
		Keys:        testKeys(n),
		Spec:        json.RawMessage(`{}`),
		TTL:         time.Minute,
		MaxAttempts: 3,
		Journal:     journal.NewMemoryCheckpoint(),
		Clock:       clock.Now,
		Logf:        t.Logf,
	}, clock
}

func cellValue(key string) []byte {
	return []byte(fmt.Sprintf(`{"cell":%q}`, key))
}

func TestLeaseGrantDeliverLifecycle(t *testing.T) {
	cfg, _ := testConfig(t, 2)
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g0 := c.Lease("w0")
	if g0.Key != "row/alg/rep0" || g0.Attempt != 1 || g0.LeaseID == "" {
		t.Fatalf("first grant = %+v", g0)
	}
	g1 := c.Lease("w1")
	if g1.Key != "row/alg/rep1" {
		t.Fatalf("second grant = %+v", g1)
	}
	if g := c.Lease("w2"); !g.Wait {
		t.Fatalf("all leased, want Wait, got %+v", g)
	}
	if err := c.Deliver("w0", g0.LeaseID, g0.Key, cellValue(g0.Key)); err != nil {
		t.Fatal(err)
	}
	// Re-delivery under the accepting lease is an idempotent success
	// (worker retrying an upload whose 200 was lost).
	if err := c.Deliver("w0", g0.LeaseID, g0.Key, cellValue(g0.Key)); err != nil {
		t.Fatalf("idempotent re-delivery: %v", err)
	}
	if err := c.Deliver("w1", g1.LeaseID, g1.Key, cellValue(g1.Key)); err != nil {
		t.Fatal(err)
	}
	if g := c.Lease("w0"); !g.Done {
		t.Fatalf("sweep drained, want Done, got %+v", g)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if !cfg.Journal.Lookup("row/alg/rep0", nil) || !cfg.Journal.Lookup("row/alg/rep1", nil) {
		t.Fatal("journal is missing delivered cells")
	}
}

// TestLeaseExpiryReassignsAndRefusesLateDuplicate is the partition
// drill at the state-machine level: a worker that stops heartbeating
// loses its cell, the cell is regranted, and the original worker's late
// result — deliberately poisoned so acceptance would be visible in the
// journal — is refused.
func TestLeaseExpiryReassignsAndRefusesLateDuplicate(t *testing.T) {
	cfg, clock := testConfig(t, 1)
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	slow := c.Lease("slow")
	if slow.Key == "" {
		t.Fatalf("no grant: %+v", slow)
	}
	// Heartbeats within the TTL keep the lease alive.
	clock.Advance(45 * time.Second)
	if err := c.Heartbeat("slow", slow.LeaseID, slow.Key); err != nil {
		t.Fatalf("in-TTL heartbeat: %v", err)
	}
	// Then the partition: nothing heard for a full TTL.
	clock.Advance(61 * time.Second)
	fresh := c.Lease("fresh")
	if fresh.Key != slow.Key || fresh.Attempt != 2 {
		t.Fatalf("expired cell not regranted: %+v", fresh)
	}
	if err := c.Heartbeat("slow", slow.LeaseID, slow.Key); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale heartbeat: %v, want ErrLeaseLost", err)
	}
	if err := c.Deliver("slow", slow.LeaseID, slow.Key, []byte(`{"poisoned":true}`)); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("late delivery under expired lease: %v, want ErrLeaseLost", err)
	}
	if err := c.Deliver("fresh", fresh.LeaseID, fresh.Key, cellValue(fresh.Key)); err != nil {
		t.Fatal(err)
	}
	// The partitioned worker reconnects after the cell completed: still
	// refused, and the journal keeps the current holder's value.
	if err := c.Deliver("slow", slow.LeaseID, slow.Key, []byte(`{"poisoned":true}`)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("post-completion duplicate: %v, want ErrDuplicate", err)
	}
	var got json.RawMessage
	if !cfg.Journal.Lookup(slow.Key, &got) || strings.Contains(string(got), "poisoned") {
		t.Fatalf("journal holds %s, want the fresh worker's value", got)
	}
}

func TestAttemptCapQuarantinesPoisonedCell(t *testing.T) {
	cfg, _ := testConfig(t, 2)
	cfg.MaxAttempts = 2
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Burn the poisoned cell's attempts.
	for attempt := 1; attempt <= 2; attempt++ {
		g := c.Lease("w")
		if g.Key != "row/alg/rep0" || g.Attempt != attempt {
			t.Fatalf("grant %d = %+v", attempt, g)
		}
		if err := c.Fail("w", g.LeaseID, g.Key, "synthetic poison"); err != nil {
			t.Fatal(err)
		}
	}
	// The healthy cell still flows; the dead one is never regranted.
	g := c.Lease("w")
	if g.Key != "row/alg/rep1" {
		t.Fatalf("after quarantine, grant = %+v", g)
	}
	if err := c.Deliver("w", g.LeaseID, g.Key, cellValue(g.Key)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err = c.Wait(ctx)
	if err == nil || !strings.Contains(err.Error(), "dead-letter") || !strings.Contains(err.Error(), "row/alg/rep0") {
		t.Fatalf("Wait = %v, want dead-letter error naming row/alg/rep0", err)
	}
	if dead := c.Dead(); len(dead) != 1 || dead[0] != "row/alg/rep0" {
		t.Fatalf("Dead() = %v", dead)
	}
}

// TestRestartResumesFromJournal kills the coordinator in the only way
// that matters to its state — abandoning the in-memory lease table —
// and restarts from the journal file. Delivered cells stay done,
// in-flight leases evaporate, and persisted attempt counts keep a
// crash-looping cell from resetting its budget. (The journal file
// itself surviving a mid-append SIGKILL is the checkpoint's torn-tail
// contract, proven in the journal package.)
func TestRestartResumesFromJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.json")
	ck, err := journal.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg, clock := testConfig(t, 3)
	cfg.Journal = ck
	c1, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g0 := c1.Lease("w")
	if err := c1.Deliver("w", g0.LeaseID, g0.Key, cellValue(g0.Key)); err != nil {
		t.Fatal(err)
	}
	// rep1: one failed attempt (its count must survive the restart),
	// then a live lease abandoned by the crash.
	g1 := c1.Lease("w")
	if err := c1.Fail("w", g1.LeaseID, g1.Key, "first attempt failed"); err != nil {
		t.Fatal(err)
	}
	g1 = c1.Lease("w")
	if g1.Key != "row/alg/rep1" || g1.Attempt != 2 {
		t.Fatalf("regrant = %+v", g1)
	}

	// "SIGKILL": c1 is never touched again. Reopen the journal file.
	ck2, err := journal.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Journal = ck2
	cfg2.MaxAttempts = 3
	c2, err := NewCoordinator(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if s := c2.Snapshot(); s.Done != 1 || s.Pending != 2 {
		t.Fatalf("post-restart snapshot = %+v, want 1 done / 2 pending", s)
	}
	// The old incarnation's lease is dead with it.
	if err := c2.Deliver("w", g1.LeaseID, g1.Key, cellValue(g1.Key)); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("old-incarnation lease honoured: %v", err)
	}
	// rep1's attempt count resumed at 2, not 0: one more failure kills it.
	g := c2.Lease("w")
	if g.Key != "row/alg/rep1" || g.Attempt != 3 {
		t.Fatalf("post-restart grant = %+v, want rep1 attempt 3", g)
	}
	if err := c2.Fail("w", g.LeaseID, g.Key, "still failing"); err != nil {
		t.Fatal(err)
	}
	if dead := c2.Dead(); len(dead) != 1 || dead[0] != "row/alg/rep1" {
		t.Fatalf("Dead() = %v, want rep1 quarantined across restart", dead)
	}
	// The remaining healthy cell completes the sweep.
	g = c2.Lease("w")
	if g.Key != "row/alg/rep2" {
		t.Fatalf("grant = %+v", g)
	}
	if err := c2.Deliver("w", g.LeaseID, g.Key, cellValue(g.Key)); err != nil {
		t.Fatal(err)
	}
	_ = clock
}

func TestDeliverValidationFailureCountsAsAttempt(t *testing.T) {
	cfg, _ := testConfig(t, 1)
	cfg.Validate = func(key string, value []byte) error {
		if strings.Contains(string(value), "bad") {
			return fmt.Errorf("synthetic validation failure")
		}
		return nil
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := c.Lease("w")
	if err := c.Deliver("w", g.LeaseID, g.Key, []byte(`{"bad":true}`)); !errors.Is(err, ErrInvalidResult) {
		t.Fatalf("Deliver = %v, want ErrInvalidResult", err)
	}
	if cfg.Journal.Lookup(g.Key, nil) {
		t.Fatal("invalid value reached the journal")
	}
	g = c.Lease("w")
	if g.Attempt != 2 {
		t.Fatalf("regrant after invalid result = %+v, want attempt 2", g)
	}
	if err := c.Deliver("w", g.LeaseID, g.Key, cellValue(g.Key)); err != nil {
		t.Fatal(err)
	}
}

func TestNewCoordinatorRejectsBadWorkLists(t *testing.T) {
	cfg, _ := testConfig(t, 1)
	for name, keys := range map[string][]string{
		"empty list":    nil,
		"empty key":     {""},
		"reserved key":  {attemptsKey},
		"duplicate key": {"a", "a"},
	} {
		bad := cfg
		bad.Keys = keys
		if _, err := NewCoordinator(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	noJournal := cfg
	noJournal.Journal = nil
	if _, err := NewCoordinator(noJournal); err == nil {
		t.Error("nil journal accepted")
	}
}

// TestWorkerPanicAndFailureQuarantine proves a worker obeys the
// dead-letter policy: a persistently panicking cell burns its attempts
// (the client turns the panic into a failed attempt) and the sweep
// finishes with a dead-letter error instead of crashing or hanging.
func TestWorkerPanicAndFailureQuarantine(t *testing.T) {
	cfg, _ := testConfig(t, 6)
	cfg.MaxAttempts = 2
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	srv, err := Serve(ctx, c, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	exec := func(ctx context.Context, key string) ([]byte, error) {
		switch key {
		case "row/alg/rep2":
			panic("poisoned cell")
		case "row/alg/rep4":
			return nil, fmt.Errorf("deterministic failure")
		}
		return cellValue(key), nil
	}
	joinAndRun(t, ctx, newTestClient(t, srv, "w"), exec)
	err = c.Wait(ctx)
	if err == nil || !strings.Contains(err.Error(), "dead-letter") {
		t.Fatalf("Wait = %v, want dead-letter error", err)
	}
	dead := c.Dead()
	if len(dead) != 2 || dead[0] != "row/alg/rep2" || dead[1] != "row/alg/rep4" {
		t.Fatalf("Dead() = %v", dead)
	}
	for _, key := range cfg.Keys {
		healthy := key != "row/alg/rep2" && key != "row/alg/rep4"
		if cfg.Journal.Lookup(key, nil) != healthy {
			t.Fatalf("journal presence of %s = %v, want %v", key, !healthy, healthy)
		}
	}
}
