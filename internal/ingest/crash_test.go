package ingest

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/resilience"
)

// Kill-and-replay: a child process ingests a known stream, stalls at an
// injected fault point (mid-commit, mid-fsync, or inside a compaction
// step), and the parent SIGKILLs it there — a real crash, not a simulated one. The
// parent then recovers the WAL and asserts the replayed matrix is
// byte-identical (as CSV) to the prefix the child had durably committed,
// and that resuming ingestion of the uncommitted remainder reproduces
// the full-input matrix exactly.

const (
	crashChildEnv = "STPT_INGEST_CRASH_CHILD" // mode: a TestIngestKillReplay subtest name
	crashDirEnv   = "STPT_INGEST_CRASH_DIR"

	crashCx, crashCy, crashCt = 6, 5, 12
	crashBatch                = 16
	crashTotal                = 160 // 10 full batches
	crashStallAt              = 4   // batch ordinal where the child freezes
	crashSeed                 = 99
)

// TestIngestCrashChild is the re-exec target; it is a no-op unless the
// parent set the mode env var.
func TestIngestCrashChild(t *testing.T) {
	mode := os.Getenv(crashChildEnv)
	if mode == "" {
		t.Skip("re-exec helper; run via TestIngestKillReplay")
	}
	dir := os.Getenv(crashDirEnv)
	marker := filepath.Join(dir, "stalled")
	stall := func(ctx context.Context, payload any) error {
		if err := os.WriteFile(marker, []byte("stalled\n"), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "marker:", err)
			os.Exit(3)
		}
		select {} // wait for the parent's SIGKILL
	}
	stallAtOrdinal := func(ctx context.Context, payload any) error {
		if payload.(int) == crashStallAt {
			return stall(ctx, payload)
		}
		return nil
	}

	inj := resilience.NewInjector()
	switch mode {
	case "mid-batch":
		// Freeze after the batch is accepted but before its WAL record is
		// written: the crash loses the whole in-flight batch.
		inj.On(resilience.FaultIngestBatch, stallAtOrdinal)
	case "mid-sync":
		// Freeze after the record's bytes are written but before fsync:
		// the record was never acknowledged, but its bytes may survive.
		inj.On(resilience.FaultWALSync, stallAtOrdinal)
	case "mid-snapshot":
		// Freeze inside the snapshot's commit window: temp file written and
		// fsynced, rename pending — the snapshot must not exist afterwards
		// and the log must still replay everything.
		inj.On(resilience.FaultAtomicRename, stall)
	case "mid-reset":
		// Freeze between the durable snapshot and the log's reset: the
		// snapshot covers the log's generation, and recovery must restart
		// the log rather than apply its batches twice.
		inj.On(resilience.FaultWALReset, stall)
	default:
		fmt.Fprintln(os.Stderr, "unknown crash mode", mode)
		os.Exit(3)
	}
	ctx := resilience.WithInjector(context.Background(), inj)

	in, err := New(Config{Cx: crashCx, Cy: crashCy, Ct: crashCt, BatchSize: crashBatch},
		filepath.Join(dir, "crash.wal"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "child new:", err)
		os.Exit(3)
	}
	readings := genReadings(crashTotal, crashCx, crashCy, crashCt, crashSeed)
	if _, _, err := in.Ingest(ctx, strings.NewReader(readingsCSV(readings))); err != nil {
		fmt.Fprintln(os.Stderr, "child ingest:", err)
		os.Exit(3)
	}
	switch mode {
	case "mid-snapshot", "mid-reset":
		err := in.Compact(ctx)
		fmt.Fprintln(os.Stderr, "child compact returned:", err)
	}
	fmt.Fprintln(os.Stderr, "child ran to completion without stalling")
	os.Exit(3)
}

func TestIngestKillReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test")
	}
	for _, mode := range []string{"mid-batch", "mid-sync", "mid-snapshot", "mid-reset"} {
		t.Run(mode, func(t *testing.T) { runKillReplay(t, mode) })
	}
}

// killAtFaultPoint starts the re-exec child in the given mode, waits
// for it to freeze at its injected fault point, and SIGKILLs it — no
// deferred cleanup in the child runs, exactly like a power cut from the
// process's point of view.
func killAtFaultPoint(t *testing.T, dir, mode string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestIngestCrashChild$")
	cmd.Env = append(os.Environ(), crashChildEnv+"="+mode, crashDirEnv+"="+dir)
	var childLog bytes.Buffer
	cmd.Stdout, cmd.Stderr = &childLog, &childLog
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()

	marker := filepath.Join(dir, "stalled")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(marker); err == nil {
			break
		}
		select {
		case err := <-done:
			t.Fatalf("child exited before stalling (%v)\n%s", err, childLog.String())
		default:
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("child never reached the fault point\n%s", childLog.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-done
}

func runKillReplay(t *testing.T, mode string) {
	dir := t.TempDir()
	killAtFaultPoint(t, dir, mode)

	walPath := filepath.Join(dir, "crash.wal")
	// Compaction crash windows leave characteristic on-disk layouts;
	// check them before recovery mutates anything.
	switch mode {
	case "mid-snapshot":
		if _, err := os.Stat(walPath + ".snap"); !os.IsNotExist(err) {
			t.Fatalf("snapshot exists before its rename (stat err=%v)", err)
		}
		if covered, err := CheckWAL(walPath); err != nil || covered {
			t.Fatalf("log awaiting the snapshot: covered=%v, %v; want a replayable log", covered, err)
		}
	case "mid-reset":
		if _, err := os.Stat(walPath + ".snap"); err != nil {
			t.Fatalf("snapshot missing in the reset window: %v", err)
		}
		if covered, err := CheckWAL(walPath); err != nil || !covered {
			t.Fatalf("log in the reset window: covered=%v, %v; want a covered log", covered, err)
		}
	}

	// Recover: a fresh ingester over the same WAL.
	re, err := New(Config{Cx: crashCx, Cy: crashCy, Ct: crashCt, BatchSize: crashBatch}, walPath)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer re.Close()
	replayed := int(re.Stats().Replayed)
	if replayed%crashBatch != 0 {
		t.Fatalf("replayed %d readings, not a whole number of batches", replayed)
	}
	committed := replayed / crashBatch
	switch mode {
	case "mid-batch":
		// Stalled before the record was written: exactly the prior batches.
		if committed != crashStallAt {
			t.Fatalf("replayed %d batches, want %d", committed, crashStallAt)
		}
	case "mid-sync":
		// Record bytes written, fsync pending. The batch was never
		// acknowledged; recovering it is allowed (the bytes survived the
		// kill), losing it is allowed (they might not survive a power cut).
		if committed != crashStallAt && committed != crashStallAt+1 {
			t.Fatalf("replayed %d batches, want %d or %d", committed, crashStallAt, crashStallAt+1)
		}
	default:
		// Every compaction window: all batches were durably
		// acknowledged before the crash, so all must replay — from the
		// log, or from the snapshot alone, depending on where the kill
		// landed.
		if committed != crashTotal/crashBatch {
			t.Fatalf("replayed %d batches, want all %d", committed, crashTotal/crashBatch)
		}
	}

	// The replayed matrix must be byte-identical (as a CSV snapshot) to
	// the matrix built from exactly the committed prefix of the stream.
	readings := genReadings(crashTotal, crashCx, crashCy, crashCt, crashSeed)
	want := matrixOf(readings[:replayed], crashCx, crashCy, crashCt)
	var wantCSV, gotCSV bytes.Buffer
	if err := datasets.SaveMatrixCSV(want, &wantCSV); err != nil {
		t.Fatal(err)
	}
	if err := datasets.SaveMatrixCSV(re.Snapshot(), &gotCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantCSV.Bytes(), gotCSV.Bytes()) {
		t.Fatalf("%s: replayed matrix differs from the committed prefix", mode)
	}

	switch mode {
	case "mid-batch", "mid-sync":
		// Resume: re-ingesting the uncommitted remainder must land exactly
		// on the full-input matrix.
		if _, _, err := re.Ingest(context.Background(), strings.NewReader(readingsCSV(readings[replayed:]))); err != nil {
			t.Fatal(err)
		}
		if !matricesEqual(re.Snapshot(), matrixOf(readings, crashCx, crashCy, crashCt)) {
			t.Fatal("resumed matrix differs from the full input")
		}
	case "mid-snapshot", "mid-reset":
		// The interrupted compaction must be finishable: compact again
		// (a no-op over a restarted log), reopen, and land on the
		// byte-identical matrix beside an empty log of generation 2.
		if err := re.Compact(context.Background()); err != nil {
			t.Fatalf("compaction after crash recovery: %v", err)
		}
		if raw, err := os.ReadFile(walPath); err != nil || !bytes.Equal(raw, header(2)) {
			t.Fatalf("log after the finished compaction: % x (%v), want the header of generation 2", raw, err)
		}
		re.Close()
		re2, err := New(Config{Cx: crashCx, Cy: crashCy, Ct: crashCt, BatchSize: crashBatch}, walPath)
		if err != nil {
			t.Fatalf("reopen after post-recovery compaction: %v", err)
		}
		defer re2.Close()
		var snapCSV bytes.Buffer
		if err := datasets.SaveMatrixCSV(re2.Snapshot(), &snapCSV); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantCSV.Bytes(), snapCSV.Bytes()) {
			t.Fatal("snapshot-recovered matrix differs from the committed input")
		}
	}
}
