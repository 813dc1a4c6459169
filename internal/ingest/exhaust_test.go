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
	w, err := OpenWALAfter(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	good := []Reading{{X: 1, Y: 1, T: 1, V: 2}}
	if err := w.Append(context.Background(), good); err != nil {
		t.Fatal(err)
	}
	durable := w.ActiveBytes()

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
	re, err := OpenWALAfter(path, 0, func(b []Reading) error { n += len(b); return nil })
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
	w, err := OpenWALAfter(path, 0, nil)
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
	w, err := OpenWALAfter(path, 0, nil)
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
	re, err := OpenWALAfter(path, 0, nil)
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
// must not lose anything — the segments it would have covered stay, the
// error is recorded, and a later compaction (space back) succeeds with
// recovery still exact.
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

			if err := in.Compact(enospcOn(fault)); err == nil {
				t.Fatal("compaction survived an injected snapshot failure")
			}
			if st := in.Stats(); st.CompactErrors != 1 {
				t.Fatalf("stats after failed compaction: %+v", st)
			}
			if _, err := os.Stat(wal + ".snap"); !os.IsNotExist(err) {
				t.Fatalf("failed compaction left a snapshot (stat err=%v)", err)
			}
			// Nothing lost: the rotation already happened, the sealed segment
			// still holds every batch.
			if segs, _ := listSegments(wal); len(segs) == 0 {
				t.Fatal("failed compaction also lost the sealed segments")
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

// TestCompactionDeleteEIORecovers: segment deletion failing after a
// durable snapshot leaves covered segments behind; the next open
// finishes the job and replays identically.
func TestCompactionDeleteEIORecovers(t *testing.T) {
	dir := t.TempDir()
	wal := filepath.Join(dir, "dd.wal")
	const cx, cy, ct, batch, total = 4, 4, 5, 8, 64
	cfg := Config{Cx: cx, Cy: cy, Ct: ct, BatchSize: batch}
	in, err := New(cfg, wal)
	if err != nil {
		t.Fatal(err)
	}
	readings := genReadings(total, cx, cy, ct, 31)
	if _, _, err := in.Ingest(context.Background(), strings.NewReader(readingsCSV(readings))); err != nil {
		t.Fatal(err)
	}
	want := in.Snapshot()
	inj := resilience.NewInjector()
	inj.On(resilience.FaultCompactDelete, func(ctx context.Context, payload any) error {
		return errors.New("EIO: injected unlink failure")
	})
	if err := in.Compact(resilience.WithInjector(context.Background(), inj)); err == nil {
		t.Fatal("compaction reported success with the delete failing")
	}
	if _, err := os.Stat(wal + ".snap"); err != nil {
		t.Fatalf("snapshot missing after delete-phase failure: %v", err)
	}
	if segs, _ := listSegments(wal); len(segs) == 0 {
		t.Fatal("delete failed yet segments are gone")
	}
	in.Close()
	re, err := New(cfg, wal)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if segs, _ := listSegments(wal); len(segs) != 0 {
		t.Fatalf("open did not finish the crashed compaction: %v", segs)
	}
	if !matricesEqual(re.Snapshot(), want) {
		t.Fatal("recovery with covered segments present differs")
	}
	if got := re.Stats().Replayed; got != total {
		t.Fatalf("Replayed = %d, want %d (covered segments must not double-count)", got, total)
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
