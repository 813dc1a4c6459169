package ingest

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	s := &Snapshot{
		Cx: 3, Cy: 2, Ct: 4,
		Upto: 7, Batches: 19, Accepted: 301,
		Cells: make([]float64, 3*2*4),
	}
	for i := range s.Cells {
		s.Cells[i] = float64(i) * 0.25
	}
	enc := EncodeSnapshot(s)
	got, err := DecodeSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cx != s.Cx || got.Cy != s.Cy || got.Ct != s.Ct ||
		got.Upto != s.Upto || got.Batches != s.Batches || got.Accepted != s.Accepted {
		t.Fatalf("header round trip: %+v", got)
	}
	for i := range s.Cells {
		if got.Cells[i] != s.Cells[i] {
			t.Fatalf("cell %d: %g != %g", i, got.Cells[i], s.Cells[i])
		}
	}
	if re := EncodeSnapshot(got); !bytes.Equal(re, enc) {
		t.Fatal("re-encoding is not canonical")
	}
	m := got.Matrix()
	if m.Cx != 3 || m.Cy != 2 || m.Ct != 4 || m.Data()[5] != s.Cells[5] {
		t.Fatalf("Matrix() shape or content wrong: %dx%dx%d", m.Cx, m.Cy, m.Ct)
	}
}

func TestSnapshotDecodeRejectsDamage(t *testing.T) {
	base := EncodeSnapshot(&Snapshot{Cx: 2, Cy: 2, Ct: 2, Upto: 1, Cells: make([]float64, 8)})
	cases := map[string][]byte{
		"empty":     {},
		"truncated": base[:len(base)-5],
		"extended":  append(append([]byte{}, base...), 0),
	}
	badMagic := append([]byte{}, base...)
	badMagic[0] ^= 0xff
	cases["bad magic"] = badMagic
	flipped := append([]byte{}, base...)
	flipped[20] ^= 1 // counter byte: checksum must catch it
	cases["bit flip"] = flipped
	for name, b := range cases {
		if _, err := DecodeSnapshot(b); err == nil {
			t.Errorf("%s: decode accepted damaged bytes", name)
		}
	}
	// A non-finite cell with a recomputed checksum must still be refused.
	nan := &Snapshot{Cx: 1, Cy: 1, Ct: 1, Cells: []float64{math.NaN()}}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("encode of NaN panicked: %v", r)
		}
	}()
	if _, err := DecodeSnapshot(EncodeSnapshot(nan)); err == nil {
		t.Error("decode accepted a NaN cell")
	}
}

// TestCompactionFoldsAndDeletes: explicit compaction writes the
// snapshot, deletes every folded record by restarting the log in place
// under the next generation, and recovery from snapshot + empty log
// reproduces the byte-identical matrix. Ingestion continuing after the
// compaction lands in the restarted log and replays on top of the
// snapshot.
func TestCompactionFoldsAndDeletes(t *testing.T) {
	dir := t.TempDir()
	wal := filepath.Join(dir, "c.wal")
	const cx, cy, ct, batch, total = 5, 4, 6, 8, 96
	cfg := Config{Cx: cx, Cy: cy, Ct: ct, BatchSize: batch}
	readings := genReadings(total, cx, cy, ct, 7)
	half := total / 2

	in, err := New(cfg, wal)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := in.Ingest(ctx, strings.NewReader(readingsCSV(readings[:half]))); err != nil {
		t.Fatal(err)
	}
	if err := in.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if st := in.Stats(); st.Compactions != 1 || st.CompactErrors != 0 {
		t.Fatalf("stats after compact: %+v", st)
	}
	if raw, err := os.ReadFile(wal); err != nil || !bytes.Equal(raw, header(2)) {
		t.Fatalf("log after compaction: % x (%v), want the header of generation 2", raw, err)
	}
	if snap, err := LoadSnapshot(wal + ".snap"); err != nil || snap == nil || snap.Upto != 1 {
		t.Fatalf("snapshot after compaction: %+v, %v; want one folding generation 1", snap, err)
	}
	// Compacting again with nothing new is a no-op.
	if err := in.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if st := in.Stats(); st.Compactions != 1 {
		t.Fatalf("no-op compaction wrote a snapshot: %+v", st)
	}
	// Keep ingesting into the restarted log, then close.
	if _, _, err := in.Ingest(ctx, strings.NewReader(readingsCSV(readings[half:]))); err != nil {
		t.Fatal(err)
	}
	want := in.Snapshot()
	in.Close()

	// Recovery: snapshot + tail replay must reproduce the matrix exactly.
	re, err := New(cfg, wal)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !matricesEqual(re.Snapshot(), want) {
		t.Fatal("snapshot + tail replay differs from the pre-close matrix")
	}
	if got := re.Stats().Replayed; got != total {
		t.Fatalf("Replayed = %d, want %d (snapshot folds count as replayed)", got, total)
	}
	if !matricesEqual(re.Snapshot(), matrixOf(readings, cx, cy, ct)) {
		t.Fatal("recovered matrix differs from the full input")
	}
}

// TestAutoCompaction: the batch-count threshold fires during ingestion
// without failing any commit, and repeated snapshots keep recovery
// exact.
func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	wal := filepath.Join(dir, "a.wal")
	const cx, cy, ct, batch, total = 4, 4, 5, 8, 128
	cfg := Config{Cx: cx, Cy: cy, Ct: ct, BatchSize: batch, CompactBatches: 3}
	readings := genReadings(total, cx, cy, ct, 11)

	in, err := New(cfg, wal)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := in.Ingest(context.Background(), strings.NewReader(readingsCSV(readings))); err != nil {
		t.Fatal(err)
	}
	st := in.Stats()
	if st.Compactions < 4 {
		t.Fatalf("16 batches at threshold 3 compacted only %d times", st.Compactions)
	}
	want := in.Snapshot()
	in.Close()

	re, err := New(cfg, wal)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !matricesEqual(re.Snapshot(), want) {
		t.Fatal("recovery after auto-compaction differs")
	}
	if got := re.Stats().Replayed; got != total {
		t.Fatalf("Replayed = %d, want %d", got, total)
	}
}

// TestAutoCompactionByBytes: the byte threshold triggers too.
func TestAutoCompactionByBytes(t *testing.T) {
	dir := t.TempDir()
	wal := filepath.Join(dir, "b.wal")
	const cx, cy, ct, batch = 4, 4, 5, 8
	cfg := Config{Cx: cx, Cy: cy, Ct: ct, BatchSize: batch, CompactBytes: 64}
	in, err := New(cfg, wal)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	readings := genReadings(64, cx, cy, ct, 13)
	if _, _, err := in.Ingest(context.Background(), strings.NewReader(readingsCSV(readings))); err != nil {
		t.Fatal(err)
	}
	if st := in.Stats(); st.Compactions == 0 {
		t.Fatalf("byte threshold 64 never compacted: %+v", st)
	}
}

// TestSnapshotDimensionMismatch: a snapshot written for one matrix
// shape refuses to seed a differently configured ingester.
func TestSnapshotDimensionMismatch(t *testing.T) {
	dir := t.TempDir()
	wal := filepath.Join(dir, "d.wal")
	cfg := Config{Cx: 4, Cy: 4, Ct: 4, BatchSize: 4}
	in, err := New(cfg, wal)
	if err != nil {
		t.Fatal(err)
	}
	readings := genReadings(16, 4, 4, 4, 17)
	ctx := context.Background()
	if _, _, err := in.Ingest(ctx, strings.NewReader(readingsCSV(readings))); err != nil {
		t.Fatal(err)
	}
	if err := in.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	in.Close()
	if _, err := New(Config{Cx: 5, Cy: 4, Ct: 4, BatchSize: 4}, wal); err == nil {
		t.Fatal("snapshot for 4x4x4 seeded a 5x4x4 ingester")
	}
}

// TestSnapshotCorruptRefused: a damaged snapshot refuses recovery
// loudly instead of rebuilding a silently different matrix.
func TestSnapshotCorruptRefused(t *testing.T) {
	dir := t.TempDir()
	wal := filepath.Join(dir, "e.wal")
	cfg := Config{Cx: 3, Cy: 3, Ct: 3, BatchSize: 4}
	in, err := New(cfg, wal)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := in.Ingest(ctx, strings.NewReader(readingsCSV(genReadings(12, 3, 3, 3, 19)))); err != nil {
		t.Fatal(err)
	}
	if err := in.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	in.Close()
	raw, err := os.ReadFile(wal + ".snap")
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(wal+".snap", raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(cfg, wal); err == nil {
		t.Fatal("corrupted snapshot accepted")
	}
}

// TestSnapshotFileMode checks that a compaction's snapshot gets the mode
// of the WAL beside it (0644 less the umask), though it is written
// through a temp file and a rename rather than opened in place.
func TestSnapshotFileMode(t *testing.T) {
	dir := t.TempDir()
	wal := filepath.Join(dir, "m.wal")
	in, err := New(Config{Cx: 2, Cy: 2, Ct: 3, BatchSize: 4}, wal)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	if _, _, err := in.Ingest(context.Background(), strings.NewReader(readingsCSV(genReadings(8, 2, 2, 3, 5)))); err != nil {
		t.Fatal(err)
	}
	if err := in.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	var modes [2]os.FileMode
	for i, f := range []string{wal, wal + ".snap"} {
		fi, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		modes[i] = fi.Mode().Perm()
	}
	if modes[1] != modes[0] {
		t.Errorf("snapshot mode %v, want the WAL's %v", modes[1], modes[0])
	}
}
