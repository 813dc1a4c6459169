package ingest

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
	w, err := OpenWALAfter(path, 0, nil)
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
	w, err := OpenWALAfter(path, 0, func(batch []Reading) error {
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
	w, err := OpenWALAfter(path, 0, nil)
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
		w, err := OpenWALAfter(full, 0, func([]Reading) error { return nil })
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
		w, err := OpenWALAfter(path, 0, func([]Reading) error { got++; return nil })
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
			_, err := OpenWALAfter(path, 0, nil)
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

	w, err := OpenWALAfter(path, 0, nil)
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

	w, err := OpenWALAfter(path, 0, nil)
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

// TestWALEmptyAndHeaderOnly: a zero-byte file and a partially written
// header both recover to an empty, appendable log.
func TestWALEmptyAndHeaderOnly(t *testing.T) {
	for cut := 0; cut <= walHeaderLen; cut++ {
		path := filepath.Join(t.TempDir(), fmt.Sprintf("w%d.wal", cut))
		if err := os.WriteFile(path, walMagic[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := OpenWALAfter(path, 0, nil)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if w.Records() != 0 {
			t.Fatalf("cut %d: %d records in empty log", cut, w.Records())
		}
		if err := w.Append(context.Background(), []Reading{{V: 2}}); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		w.Close()
	}
}
