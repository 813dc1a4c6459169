package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/experiments"
	"repro/internal/journal"
)

// The integration drills run the paper's real experiment cells (micro
// scale) through the distributed driver under crashes, and assert the
// reduced tables are BYTE-identical to a never-crashed serial run —
// the acceptance bar for distribution: no one should be able to tell
// from the numbers whether a sweep ran serially or survived a crash.

func microOptions() experiments.Options {
	return experiments.Options{
		Cx: 8, Cy: 8, TTrain: 12, Horizon: 12,
		Depth: 2, WindowSize: 3, QuantLevels: 4,
		EmbedDim: 4, Hidden: 4, Epochs: 2,
		EpsPattern: 10, EpsSanitize: 20,
		Queries: 30, Reps: 2, Seed: 1, Households: 60,
	}
}

// goldenFig6Single runs the serial, never-crashed reference sweep with
// a checkpoint and returns its checkpoint-reduced row as canonical JSON
// bytes. Reducing the golden through its own checkpoint (all cells
// cached) strips the live wall-clock timings, which are the one
// legitimately non-deterministic part of a row — two serial runs do not
// byte-match each other on timings either. Everything the paper
// publishes (the MRE tables) must match bit-for-bit.
func goldenFig6Single(t *testing.T, o experiments.Options) []byte {
	t.Helper()
	serial := o
	serial.Checkpoint = journal.NewMemoryCheckpoint()
	if _, err := experiments.RunFig6Single(context.Background(), serial, datasets.CA, datasets.Uniform); err != nil {
		t.Fatal(err)
	}
	row, err := experiments.RunFig6Single(context.Background(), serial, datasets.CA, datasets.Uniform)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(row)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// reduceFromJournal reopens the coordinator's journal file as a plain
// checkpoint and folds the tables through the unchanged serial path —
// every cell hits the cache, so this is pure reduction.
func reduceFromJournal(t *testing.T, o experiments.Options, path string) []byte {
	t.Helper()
	ck, err := journal.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	reduced := o
	reduced.Checkpoint = ck
	row, err := experiments.RunFig6Single(context.Background(), reduced, datasets.CA, datasets.Uniform)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(row)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func sweepConfig(t *testing.T, spec experiments.SweepSpec, journalPath string) Config {
	t.Helper()
	keys, err := spec.WorkList()
	if err != nil {
		t.Fatal(err)
	}
	rawSpec, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := journal.OpenCheckpoint(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ck.Close() })
	return Config{
		Experiment:  spec.Experiment,
		Keys:        keys,
		Spec:        rawSpec,
		TTL:         2 * time.Second,
		MaxAttempts: 3,
		Journal:     ck,
		Validate:    func(_ string, value []byte) error { return experiments.ValidateCellValue(value) },
		Logf:        t.Logf,
	}
}

// TestDistributedSweepMatchesSerialBytes: two HTTP workers split a real
// fig6 row; one dies mid-sweep (context torn down, cells reassigned).
// The reduced table is byte-identical to the serial golden run. Workers
// build their executors from the coordinator's served spec, exactly as
// the stpt-sweep binary does — nothing is shared in-process but the
// HTTP wire.
func TestDistributedSweepMatchesSerialBytes(t *testing.T) {
	o := microOptions()
	golden := goldenFig6Single(t, o)
	spec := experiments.NewSweepSpec("fig6-single", "CA", "uniform", o)
	journalPath := filepath.Join(t.TempDir(), "journal.json")

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	c, err := NewCoordinator(sweepConfig(t, spec, journalPath))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(ctx, c, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// workerExec joins over HTTP and reconstructs the workload from the
	// served spec (the real worker handshake).
	workerExec := func(ctx context.Context, cl *Client) (Execute, error) {
		reply, err := cl.Join(ctx)
		if err != nil {
			return nil, err
		}
		joined, err := experiments.DecodeSweepSpec(reply.Spec)
		if err != nil {
			return nil, err
		}
		runner, err := experiments.NewCellRunner(joined)
		if err != nil {
			return nil, err
		}
		return runner.Execute, nil
	}

	// The doomed worker dies (context cancelled — the in-process stand-in
	// for a crash; the SIGKILL fidelity is covered by the chaos suite)
	// after two cells.
	doomedCtx, doom := context.WithCancel(ctx)
	defer doom()
	doomed := newTestClient(t, srv, "doomed")
	doomedDone := make(chan struct{})
	go func() {
		defer close(doomedDone)
		exec, err := workerExec(doomedCtx, doomed)
		if err != nil {
			t.Errorf("doomed join: %v", err)
			return
		}
		var n atomic.Int32
		doomed.Run(doomedCtx, func(ctx context.Context, key string) ([]byte, error) { //nolint:errcheck // dies on purpose
			if n.Add(1) > 2 {
				doom()
				return nil, ctx.Err()
			}
			return exec(ctx, key)
		})
	}()

	steady := newTestClient(t, srv, "steady")
	exec, err := workerExec(ctx, steady)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := steady.Run(ctx, exec); err != nil {
		t.Fatal(err)
	}
	<-doomedDone
	if err := c.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	got := reduceFromJournal(t, o, journalPath)
	if !bytes.Equal(got, golden) {
		t.Fatalf("distributed tables differ from serial golden\n got: %s\nwant: %s", got, golden)
	}
}

// TestCoordinatorRestartMidSweepMatchesSerialBytes: the coordinator is
// abandoned mid-sweep (its only durable state is the journal — exactly
// what a SIGKILL leaves behind; the journal file's own torn-tail
// recovery is the checkpoint's proven contract) and a fresh incarnation
// resumes from the journal. Completed cells are not re-run, and the
// final tables are byte-identical to the serial golden run.
func TestCoordinatorRestartMidSweepMatchesSerialBytes(t *testing.T) {
	o := microOptions()
	golden := goldenFig6Single(t, o)
	spec := experiments.NewSweepSpec("fig6-single", "CA", "uniform", o)
	journalPath := filepath.Join(t.TempDir(), "journal.json")

	runner, err := experiments.NewCellRunner(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Incarnation 1: crash after five delivered cells.
	ctx1, kill := context.WithCancel(context.Background())
	defer kill()
	c1, err := NewCoordinator(sweepConfig(t, spec, journalPath))
	if err != nil {
		t.Fatal(err)
	}
	srv1, err := Serve(ctx1, c1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w1 := newTestClient(t, srv1, "w1")
	if _, err := w1.Join(ctx1); err != nil {
		t.Fatal(err)
	}
	var delivered atomic.Int32
	_, err = w1.Run(ctx1, func(ctx context.Context, key string) ([]byte, error) {
		if delivered.Add(1) > 5 {
			kill()
			return nil, ctx.Err()
		}
		return runner.Execute(ctx, key)
	})
	srv1.Close()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("incarnation 1 ended with %v, want context.Canceled", err)
	}

	// Incarnation 2: resume from the journal file alone.
	ctx2, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	c2, err := NewCoordinator(sweepConfig(t, spec, journalPath))
	if err != nil {
		t.Fatal(err)
	}
	snap := c2.Snapshot()
	if snap.Done == 0 || snap.Done >= snap.Total {
		t.Fatalf("restart snapshot = %+v, want a partially complete sweep", snap)
	}
	srv2, err := Serve(ctx2, c2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	var recompute atomic.Int32
	exec := func(ctx context.Context, key string) ([]byte, error) {
		recompute.Add(1)
		return runner.Execute(ctx, key)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		w := newTestClient(t, srv2, "w2a")
		if _, err := w.Join(ctx2); err != nil {
			t.Errorf("w2a: join: %v", err)
			return
		}
		if _, err := w.Run(ctx2, exec); err != nil {
			t.Errorf("w2a: run: %v", err)
		}
	}()
	joinAndRun(t, ctx2, newTestClient(t, srv2, "w2b"), exec)
	<-done
	if err := c2.Wait(ctx2); err != nil {
		t.Fatal(err)
	}
	if recomputed := recompute.Load(); int(recomputed) != snap.Total-snap.Done {
		t.Fatalf("incarnation 2 executed %d cells, want exactly the %d unfinished ones", recomputed, snap.Total-snap.Done)
	}

	got := reduceFromJournal(t, o, journalPath)
	if !bytes.Equal(got, golden) {
		t.Fatalf("post-restart tables differ from serial golden\n got: %s\nwant: %s", got, golden)
	}
}
