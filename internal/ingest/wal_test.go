package ingest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/resilience"
)

// testBatches builds n deterministic batches of varying size.
func testBatches(n int) [][]Reading {
	out := make([][]Reading, n)
	v := 0.5
	for b := range out {
		batch := make([]Reading, 3+b%4)
		for i := range batch {
			batch[i] = Reading{X: (b + i) % 5, Y: (b * i) % 3, T: b % 7, V: v}
			v += 1.25
		}
		out[b] = batch
	}
	return out
}

func appendAll(t *testing.T, path string, batches [][]Reading) {
	t.Helper()
	w, err := OpenWAL(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := w.Append(context.Background(), b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// replayAll collects every batch the WAL at path delivers.
func replayAll(t *testing.T, path string) [][]Reading {
	t.Helper()
	var got [][]Reading
	w, err := OpenWAL(path, 0, func(batch []Reading) error {
		cp := make([]Reading, len(batch))
		copy(cp, batch)
		got = append(got, cp)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	return got
}

func equalBatches(a, b [][]Reading) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestWALRoundTrip: append, reopen, replay — every batch comes back in
// order and byte-exact, and appending after a reopen keeps working.
func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ingest.wal")
	batches := testBatches(7)
	appendAll(t, path, batches)
	if got := replayAll(t, path); !equalBatches(got, batches) {
		t.Fatalf("replay mismatch: got %d batches, want %d", len(got), len(batches))
	}
	// Reopen-and-extend.
	w, err := OpenWAL(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	extra := []Reading{{X: 1, Y: 1, T: 1, V: 42}}
	if err := w.Append(context.Background(), extra); err != nil {
		t.Fatal(err)
	}
	w.Close()
	got := replayAll(t, path)
	if len(got) != len(batches)+1 || !equalBatches(got[:len(batches)], batches) || got[len(batches)][0] != extra[0] {
		t.Fatalf("extended replay mismatch (%d batches)", len(got))
	}
}

// TestWALTornTailEveryOffset is the torn-write sweep: for every possible
// truncation point in the file, reopening must recover exactly the
// complete-record prefix, drop the torn tail, and accept new appends —
// a crash mid-write can cost at most the unacknowledged batch.
func TestWALTornTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.wal")
	batches := testBatches(4)
	appendAll(t, full, batches)
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	// recordEnds[i] = file offset after record i.
	var recordEnds []int
	{
		off := walHeaderLen
		w, err := OpenWAL(full, 0, func([]Reading) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		w.Close()
		for _, b := range batches {
			off += recHeaderLen + 4 + len(b)*readingLen
			recordEnds = append(recordEnds, off)
		}
		if off != len(raw) {
			t.Fatalf("record arithmetic off: %d != %d", off, len(raw))
		}
	}
	completeBefore := func(cut int) int {
		n := 0
		for _, end := range recordEnds {
			if end <= cut {
				n++
			}
		}
		return n
	}

	for cut := 0; cut < len(raw); cut++ {
		path := filepath.Join(dir, "torn.wal")
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var got int
		w, err := OpenWAL(path, 0, func([]Reading) error { got++; return nil })
		if err != nil {
			t.Fatalf("cut %d: reopen failed: %v", cut, err)
		}
		if want := completeBefore(cut); got != want {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, got, want)
		}
		// The log must be immediately appendable again.
		if err := w.Append(context.Background(), []Reading{{V: 1}}); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		w.Close()
		if got := replayAll(t, path); len(got) != completeBefore(cut)+1 {
			t.Fatalf("cut %d: %d records after recovery append", cut, len(got))
		}
	}
}

// TestWALInteriorCorruptionRefused: damage that a torn append cannot
// explain — a flipped byte inside a complete record, or garbage where
// the magic should be — must refuse to open with ErrWALCorrupt, never
// silently skip a batch.
func TestWALInteriorCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.wal")
	appendAll(t, full, testBatches(3))
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	flip := func(name string, mutate func(b []byte)) {
		t.Run(name, func(t *testing.T) {
			b := append([]byte(nil), raw...)
			mutate(b)
			path := filepath.Join(dir, name+".wal")
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := OpenWAL(path, 0, nil)
			if !errors.Is(err, ErrWALCorrupt) {
				t.Fatalf("err = %v, want ErrWALCorrupt", err)
			}
		})
	}
	flip("bad-magic", func(b []byte) { b[2] ^= 0xff })
	flip("payload-bitflip", func(b []byte) { b[walHeaderLen+recHeaderLen+1] ^= 0x01 })
	flip("absurd-length", func(b []byte) {
		b[walHeaderLen] = 0xff
		b[walHeaderLen+1] = 0xff
		b[walHeaderLen+2] = 0xff
		b[walHeaderLen+3] = 0x7f
	})
	flip("zero-length", func(b []byte) {
		copy(b[walHeaderLen:walHeaderLen+4], []byte{0, 0, 0, 0})
	})
}

// TestWALFsyncFailurePoisons: an injected fsync failure makes the
// Append fail and every subsequent Append refuse — the process must
// restart and recover rather than keep writing to a file in an unknown
// state. The recovered log must contain a consistent prefix.
func TestWALFsyncFailurePoisons(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ingest.wal")
	batches := testBatches(4)

	inj := resilience.NewInjector()
	inj.On(resilience.FaultWALSync, func(ctx context.Context, payload any) error {
		if payload.(int) == 2 {
			return errors.New("EIO: injected fsync failure")
		}
		return nil
	})
	ctx := resilience.WithInjector(context.Background(), inj)

	w, err := OpenWAL(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range batches {
		err := w.Append(ctx, b)
		if i < 2 && err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if i == 2 && err == nil {
			t.Fatal("append survived an fsync failure")
		}
		if i == 3 {
			if err == nil {
				t.Fatal("append accepted on a poisoned WAL")
			}
			if got := err.Error(); !errors.Is(err, os.ErrInvalid) && got == "" {
				t.Fatal("empty poison error")
			}
		}
	}
	w.Close()

	// Recovery: the two acknowledged batches must replay; batch 2's bytes
	// are on disk (the write preceded the failed sync) so replay may also
	// surface it — it was input the ingester accepted, so applying it on
	// restart is correct, not a duplicate.
	got := replayAll(t, path)
	if len(got) < 2 || len(got) > 3 {
		t.Fatalf("recovered %d batches, want 2 or 3", len(got))
	}
	if !equalBatches(got[:2], batches[:2]) {
		t.Fatal("acknowledged batches did not survive the fsync failure")
	}
}

// TestWALTornWriteInjection reuses the fault injector for a torn-write
// simulation: the hook truncates the freshly written record to a prefix
// (only part of it "hit disk") and fails the sync. Reopening must drop
// the torn record and replay exactly the acknowledged prefix.
func TestWALTornWriteInjection(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ingest.wal")
	batches := testBatches(3)

	var sizeBefore int64
	inj := resilience.NewInjector()
	inj.On(resilience.FaultWALSync, func(ctx context.Context, payload any) error {
		if payload.(int) == 2 {
			// Keep 5 bytes of the record: a torn header.
			if err := os.Truncate(path, sizeBefore+5); err != nil {
				t.Errorf("truncate: %v", err)
			}
			return errors.New("injected crash mid-write")
		}
		return nil
	})
	ctx := resilience.WithInjector(context.Background(), inj)

	w, err := OpenWAL(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range batches {
		if st, err := os.Stat(path); err == nil {
			sizeBefore = st.Size()
		}
		if err := w.Append(ctx, b); (err != nil) != (i == 2) {
			t.Fatalf("batch %d: err = %v", i, err)
		}
	}
	w.Close()

	got := replayAll(t, path)
	if !equalBatches(got, batches[:2]) {
		t.Fatalf("recovered %d batches after torn write, want the 2 acknowledged", len(got))
	}
}

// TestWALEmptyAndHeaderOnly: a zero-byte file and every cut of a
// header — beside no snapshot, or beside one a compaction committed
// before its reset was cut short — recover to an empty log of the
// generation after the snapshot, which accepts appends.
func TestWALEmptyAndHeaderOnly(t *testing.T) {
	for _, base := range []uint64{0, 2} {
		for cut := 0; cut <= walHeaderLen; cut++ {
			path := filepath.Join(t.TempDir(), fmt.Sprintf("w%d.wal", cut))
			if err := os.WriteFile(path, header(base + 1)[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			w, err := OpenWAL(path, base, nil)
			if err != nil {
				t.Fatalf("base %d, cut %d: %v", base, cut, err)
			}
			if w.Records() != 0 || w.gen != base+1 {
				t.Fatalf("base %d, cut %d: %d records at generation %d", base, cut, w.Records(), w.gen)
			}
			if err := w.Append(context.Background(), []Reading{{V: 2}}); err != nil {
				t.Fatalf("base %d, cut %d: %v", base, cut, err)
			}
			w.Close()
			got, err := OpenWAL(path, base, nil)
			if err != nil || got.Records() != 1 {
				t.Fatalf("base %d, cut %d: reopen after the append: %v", base, cut, err)
			}
			got.Close()
		}
	}
}

// TestWALGenerations pins the recovery rule: beside a snapshot that
// folds every generation up to base, a log of generation base+1
// replays, a log at or below base restarts empty (a compaction stopped
// before its reset; its batches are in the snapshot), and any other
// generation is ErrWALCorrupt, refused with no byte changed.
func TestWALGenerations(t *testing.T) {
	batches := testBatches(3)
	logAt := func(t *testing.T, gen uint64) (string, []byte) {
		path := filepath.Join(t.TempDir(), "g.wal")
		appendAll(t, path, batches)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		copy(raw, header(gen))
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path, raw
	}
	for _, tc := range []struct {
		name      string
		gen, base uint64
	}{
		{"replays one past its snapshot", 4, 3},
		{"replays generation 1 with no snapshot", 1, 0},
		{"restarts at its snapshot", 3, 3},
		{"restarts below its snapshot", 1, 3},
		{"refuses two past its snapshot", 5, 3},
		{"refuses generation 2 with no snapshot", 2, 0},
		{"refuses generation 0", 0, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path, raw := logAt(t, tc.gen)
			replayed := 0
			w, err := OpenWAL(path, tc.base, func([]Reading) error { replayed++; return nil })
			switch {
			case tc.gen == tc.base+1:
				if err != nil || replayed != len(batches) || w.gen != tc.gen {
					t.Fatalf("replayed %d of %d batches: %v", replayed, len(batches), err)
				}
				w.Close()
			case tc.gen != 0 && tc.gen <= tc.base:
				if err != nil || replayed != 0 || w.Records() != 0 {
					t.Fatalf("covered log: replayed %d, %v", replayed, err)
				}
				w.Close()
				if got, _ := os.ReadFile(path); !bytes.Equal(got, header(tc.base+1)) {
					t.Fatalf("covered log restarted as % x, want the header of generation %d", got, tc.base+1)
				}
			default:
				if !errors.Is(err, ErrWALCorrupt) || !strings.Contains(err.Error(), path) {
					t.Fatalf("err = %v, want ErrWALCorrupt naming %s", err, path)
				}
				if got, _ := os.ReadFile(path); !bytes.Equal(got, raw) {
					t.Fatal("a refused open changed the log")
				}
			}
		})
	}
}

// TestWALEarlierBuildRefused: a log an earlier build wrote — its
// segmented format's STPTWAL\x01 file, or a sealed segment beside a log
// — is refused by recovery and by the audit, naming the file, and no
// byte on disk changes.
func TestWALEarlierBuildRefused(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "old.wal")
	oldLog := append(oldWALMagic[:], 8, 0, 0, 0, 1, 2, 3, 4)
	if err := os.WriteFile(old, oldLog, 0o644); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "seg.wal")
	appendAll(t, seg, testBatches(1))
	sealed := seg + ".00000001"
	if err := os.WriteFile(sealed, oldLog, 0o644); err != nil {
		t.Fatal(err)
	}
	lone := filepath.Join(dir, "lone.wal")
	if err := os.WriteFile(lone+".00000003", oldLog, 0o644); err != nil {
		t.Fatal(err)
	}
	for path, named := range map[string]string{old: old, seg: sealed, lone: lone + ".00000003"} {
		before := dirFiles(t, dir)
		if _, err := OpenWAL(path, 0, nil); err == nil || !strings.Contains(err.Error(), named) || !strings.Contains(err.Error(), "earlier build") {
			t.Fatalf("open %s: %v, want a refusal naming %s", path, err, named)
		}
		if _, err := CheckWAL(path); err == nil || !strings.Contains(err.Error(), named) {
			t.Fatalf("audit %s: %v, want a refusal naming %s", path, err, named)
		}
		if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
			t.Fatalf("refusing %s changed the directory", path)
		}
	}
}

// TestWALAppendRefusesOversizeBatch: a batch one record cannot carry is
// refused before any byte is written, so the log never holds a record
// its own recovery would refuse, and the handle stays usable.
func TestWALAppendRefusesOversizeBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.wal")
	w, err := OpenWAL(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(context.Background(), testBatches(1)[0]); err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadFile(path)
	if err := w.Append(context.Background(), make([]Reading, maxBatch+1)); err == nil {
		t.Fatal("an oversize batch was appended")
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
		t.Fatal("a refused oversize append changed the log")
	}
	if w.Broken() {
		t.Fatal("a refused oversize append poisoned the log")
	}
}
