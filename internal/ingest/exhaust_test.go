package ingest

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/resilience"
)

// Exhaustion drills: inject ENOSPC, EIO, and short writes at every
// durable write point and assert the system either fails with a typed,
// classifiable error or degrades with zero data loss — acknowledged
// readings replay exactly, unacknowledged ones are cleanly refusable,
// and no ε is ever spent silently.

// enospcOn returns a context whose injector fails the given fault with
// a wrapped ENOSPC.
func enospcOn(fault resilience.Fault) context.Context {
	inj := resilience.NewInjector()
	inj.On(fault, func(ctx context.Context, payload any) error {
		return fmt.Errorf("injected: %w", syscall.ENOSPC)
	})
	return resilience.WithInjector(context.Background(), inj)
}

// TestWALAppendPartialWriteTruncates: an ENOSPC mid-record (short
// write) leaves torn bytes on disk; Append must truncate back to the
// last durable record before returning, so the log never carries a tail
// that a later reopen could mistake for interior corruption.
func TestWALAppendPartialWriteTruncates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.wal")
	w, err := OpenWAL(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	good := []Reading{{X: 1, Y: 1, T: 1, V: 2}}
	if err := w.Append(context.Background(), good); err != nil {
		t.Fatal(err)
	}
	durable := w.Size()

	ctx := enospcOn(resilience.FaultShortWrite)
	err = w.Append(ctx, []Reading{{X: 2, Y: 2, T: 2, V: 3}})
	if err == nil || !resilience.IsDiskFull(err) {
		t.Fatalf("short append: %v, want a disk-full error", err)
	}
	info, serr := os.Stat(path)
	if serr != nil {
		t.Fatal(serr)
	}
	if info.Size() != durable {
		t.Fatalf("file is %d bytes after heal, want %d — the torn tail survived", info.Size(), durable)
	}
	if w.Broken() {
		t.Fatal("a healed partial write must not poison the WAL")
	}
	// Space "returns": the same append now succeeds, and reopen sees both.
	if err := w.Append(context.Background(), []Reading{{X: 2, Y: 2, T: 2, V: 3}}); err != nil {
		t.Fatalf("append after heal: %v", err)
	}
	w.Close()
	n := 0
	re, err := OpenWAL(path, 0, func(b []Reading) error { n += len(b); return nil })
	if err != nil {
		t.Fatal(err)
	}
	re.Close()
	if n != 2 || re.Records() != 2 {
		t.Fatalf("replayed %d readings over %d records, want 2 and 2", n, re.Records())
	}
}

// TestWALAppendENOSPCNothingWritten: a whole-write ENOSPC (nothing
// persisted) keeps the log byte-identical and usable.
func TestWALAppendENOSPCNothingWritten(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "n.wal")
	w, err := OpenWAL(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(context.Background(), []Reading{{V: 1}}); err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadFile(path)
	err = w.Append(enospcOn(resilience.FaultWriteENOSPC), []Reading{{V: 2}})
	if !resilience.IsDiskFull(err) {
		t.Fatalf("err = %v, want disk-full", err)
	}
	after, _ := os.ReadFile(path)
	if string(before) != string(after) {
		t.Fatal("a failed whole write changed the file")
	}
	if w.Broken() {
		t.Fatal("ENOSPC must not poison the WAL")
	}
}

// TestWALSyncEIOPoisons: a failed fsync through the seam poisons the
// handle — the disk state is unknowable, so every further append is
// refused until a restart replays the durable prefix.
func TestWALSyncEIOPoisons(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.wal")
	w, err := OpenWAL(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	inj := resilience.NewInjector()
	inj.On(resilience.FaultSyncEIO, func(ctx context.Context, payload any) error {
		return errors.New("EIO: injected")
	})
	err = w.Append(resilience.WithInjector(context.Background(), inj), []Reading{{V: 1}})
	if !errors.Is(err, ErrWALPoisoned) {
		t.Fatalf("err = %v, want ErrWALPoisoned", err)
	}
	if err := w.Append(context.Background(), []Reading{{V: 2}}); !errors.Is(err, ErrWALPoisoned) {
		t.Fatalf("append on a poisoned WAL: %v", err)
	}
	// Restart: the unacknowledged record's bytes may or may not have hit
	// the platter; either a clean 0-record or 1-record log is honest.
	w.Close()
	re, err := OpenWAL(path, 0, nil)
	if err != nil {
		t.Fatalf("recovery after poisoning: %v", err)
	}
	re.Close()
	if re.Records() > 1 {
		t.Fatalf("recovered %d records from one unacknowledged append", re.Records())
	}
}

// TestIngesterDiskFullDrill drives the whole ingester through a
// disk-full episode at each WAL fault point: the commit fails with a
// typed error, health reports the exhaustion, the unacknowledged tail
// is resendable once space returns, and the final matrix equals the
// full input exactly — no loss, no double count.
func TestIngesterDiskFullDrill(t *testing.T) {
	for _, fault := range []resilience.Fault{resilience.FaultWriteENOSPC, resilience.FaultShortWrite} {
		t.Run(string(fault), func(t *testing.T) {
			dir := t.TempDir()
			const cx, cy, ct, batch, total = 4, 4, 6, 8, 64
			cfg := Config{Cx: cx, Cy: cy, Ct: ct, BatchSize: batch}
			in, err := New(cfg, filepath.Join(dir, "d.wal"))
			if err != nil {
				t.Fatal(err)
			}
			defer in.Close()
			readings := genReadings(total, cx, cy, ct, 23)
			half := total / 2
			if _, _, err := in.Ingest(context.Background(), strings.NewReader(readingsCSV(readings[:half]))); err != nil {
				t.Fatal(err)
			}

			// Disk full: the next stream fails at its first commit.
			accepted, _, err := in.Ingest(enospcOn(fault), strings.NewReader(readingsCSV(readings[half:])))
			if !resilience.IsDiskFull(err) {
				t.Fatalf("ingest during exhaustion: %v, want disk-full", err)
			}
			if accepted != 0 {
				t.Fatalf("failed stream acknowledged %d readings", accepted)
			}
			h := in.Health()
			if h.Ready || !h.DiskFull {
				t.Fatalf("health during exhaustion: %+v", h)
			}

			// Space returns: resend the exact unacknowledged tail.
			if _, _, err := in.Ingest(context.Background(), strings.NewReader(readingsCSV(readings[half:]))); err != nil {
				t.Fatal(err)
			}
			if h := in.Health(); !h.Ready {
				t.Fatalf("health after recovery: %+v", h)
			}
			if !matricesEqual(in.Snapshot(), matrixOf(readings, cx, cy, ct)) {
				t.Fatal("matrix after the drill differs from the full input")
			}
			if st := in.Stats(); st.CommitFailures != 1 || st.Accepted != total {
				t.Fatalf("stats after drill: %+v", st)
			}
		})
	}
}

// TestCompactionENOSPCDegrades: a snapshot write failing with ENOSPC
// must not lose anything — the log it would have covered stays as it
// was and usable, the error is recorded, and a later compaction (space
// back) succeeds with recovery still exact.
func TestCompactionENOSPCDegrades(t *testing.T) {
	for _, fault := range []resilience.Fault{
		resilience.FaultWriteENOSPC, resilience.FaultShortWrite, resilience.FaultSyncEIO,
	} {
		t.Run(string(fault), func(t *testing.T) {
			dir := t.TempDir()
			wal := filepath.Join(dir, "c.wal")
			const cx, cy, ct, batch, total = 4, 4, 5, 8, 64
			cfg := Config{Cx: cx, Cy: cy, Ct: ct, BatchSize: batch}
			in, err := New(cfg, wal)
			if err != nil {
				t.Fatal(err)
			}
			readings := genReadings(total, cx, cy, ct, 29)
			if _, _, err := in.Ingest(context.Background(), strings.NewReader(readingsCSV(readings))); err != nil {
				t.Fatal(err)
			}
			want := in.Snapshot()
			log, err := os.ReadFile(wal)
			if err != nil {
				t.Fatal(err)
			}

			if err := in.Compact(enospcOn(fault)); err == nil {
				t.Fatal("compaction survived an injected snapshot failure")
			}
			if st := in.Stats(); st.CompactErrors != 1 {
				t.Fatalf("stats after failed compaction: %+v", st)
			}
			if _, err := os.Stat(wal + ".snap"); !os.IsNotExist(err) {
				t.Fatalf("failed compaction left a snapshot (stat err=%v)", err)
			}
			// Nothing lost: the log still holds every batch.
			if got, _ := os.ReadFile(wal); string(got) != string(log) {
				t.Fatal("failed compaction changed the log")
			}
			if h := in.Health(); h.Poisoned {
				t.Fatalf("a snapshot that never reached its path poisoned the log: %+v", h)
			}

			// Space returns: compaction succeeds and recovery stays exact.
			if err := in.Compact(context.Background()); err != nil {
				t.Fatalf("compaction after space returned: %v", err)
			}
			in.Close()
			re, err := New(cfg, wal)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if !matricesEqual(re.Snapshot(), want) {
				t.Fatal("recovery after the compaction drill differs")
			}
		})
	}
}

// TestCompactionFailurePoisonsWithoutLoss: once a compaction's
// snapshot may be on disk but the log was not restarted — (a) the reset
// fails after the snapshot commits, or (b) only the directory fsync
// fails, so the snapshot's rename may yet be undone — the log is
// poisoned. The next Ingest is refused with ErrWALPoisoned, so it
// acknowledges nothing that the next open would skip as covered, and a
// reopen recovers every reading acknowledged before the failure; the
// refused readings are then resent and land exactly once.
func TestCompactionFailurePoisonsWithoutLoss(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault resilience.Fault
		fail  func(dir string) resilience.Hook
	}{
		{"reset-fails", resilience.FaultWALReset, func(string) resilience.Hook {
			return func(context.Context, any) error { return errors.New("EIO: injected reset failure") }
		}},
		{"dir-fsync-fails", resilience.FaultSyncEIO, func(dir string) resilience.Hook {
			return func(_ context.Context, payload any) error {
				if payload == dir {
					return errors.New("EIO: injected directory fsync failure")
				}
				return nil
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			wal := filepath.Join(dir, "dd.wal")
			const cx, cy, ct, batch, total, late = 4, 4, 5, 8, 64, 32
			cfg := Config{Cx: cx, Cy: cy, Ct: ct, BatchSize: batch}
			in, err := New(cfg, wal)
			if err != nil {
				t.Fatal(err)
			}
			defer in.Close()
			readings := genReadings(total+late, cx, cy, ct, 31)
			ctx := context.Background()
			if _, _, err := in.Ingest(ctx, strings.NewReader(readingsCSV(readings[:total]))); err != nil {
				t.Fatal(err)
			}
			inj := resilience.NewInjector().On(tc.fault, tc.fail(dir))
			err = in.Compact(resilience.WithInjector(ctx, inj))
			if !errors.Is(err, ErrWALPoisoned) {
				t.Fatalf("failed compaction: %v, want ErrWALPoisoned", err)
			}
			if _, err := os.Stat(wal + ".snap"); err != nil {
				t.Fatalf("no snapshot after a failure past its rename: %v", err)
			}
			if h := in.Health(); !h.Poisoned {
				t.Fatalf("health after the failed compaction: %+v", h)
			}
			accepted, _, err := in.Ingest(ctx, strings.NewReader(readingsCSV(readings[total:])))
			if !errors.Is(err, ErrWALPoisoned) || accepted != 0 {
				t.Fatalf("ingest after the failed compaction acknowledged %d readings: %v, want ErrWALPoisoned", accepted, err)
			}
			in.Close()

			re, err := New(cfg, wal)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if !matricesEqual(re.Snapshot(), matrixOf(readings[:total], cx, cy, ct)) {
				t.Fatal("recovery lost readings acknowledged before the failed compaction")
			}
			if got := re.Stats().Replayed; got != total {
				t.Fatalf("Replayed = %d, want %d (a covered log must not double-count)", got, total)
			}
			if _, _, err := re.Ingest(ctx, strings.NewReader(readingsCSV(readings[total:]))); err != nil {
				t.Fatal(err)
			}
			if !matricesEqual(re.Snapshot(), matrixOf(readings, cx, cy, ct)) {
				t.Fatal("the resent readings did not land exactly once")
			}
		})
	}
}

// TestDeadLetterENOSPCSurfaces: quarantine writes run through the seam
// too — a full disk fails the ingest call with a classifiable error
// rather than silently discarding the evidence.
func TestDeadLetterENOSPCSurfaces(t *testing.T) {
	dir := t.TempDir()
	dl, err := OpenDeadLetter(filepath.Join(dir, "dead.jsonl"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer dl.Close()
	cfg := Config{Cx: 2, Cy: 2, Ct: 2, BatchSize: 4, DeadLetter: dl}
	in, err := New(cfg, filepath.Join(dir, "w.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	_, _, err = in.Ingest(enospcOn(resilience.FaultWriteENOSPC), strings.NewReader("not,a,valid,reading,line\n"))
	if !resilience.IsDiskFull(err) {
		t.Fatalf("quarantine during exhaustion: %v, want disk-full", err)
	}
}
