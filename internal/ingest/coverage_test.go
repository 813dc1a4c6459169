package ingest

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A rotated and compacted WAL — snapshot plus sealed segments plus an
// active file — proves gapless coverage, and a covered segment a crashed
// compaction left behind is counted, not refused.
func TestWALCoverageRotatedCompacted(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	path := filepath.Join(dir, "feed.wal")

	in, err := New(Config{Cx: 2, Cy: 2, Ct: 16, BatchSize: 2}, path)
	if err != nil {
		t.Fatal(err)
	}
	feed := func(t0, t1 int) string {
		var sb strings.Builder
		for tt := t0; tt < t1; tt++ {
			for x := 0; x < 2; x++ {
				for y := 0; y < 2; y++ {
					fmt.Fprintf(&sb, "%d,%d,%d,%g\n", x, y, tt, 1.0)
				}
			}
		}
		return sb.String()
	}
	if _, _, err := in.Ingest(ctx, strings.NewReader(feed(0, 4))); err != nil {
		t.Fatal(err)
	}
	if err := in.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := in.Ingest(ctx, strings.NewReader(feed(4, 8))); err != nil {
		t.Fatal(err)
	}
	// Seal the post-snapshot batches too, then write a little more into
	// the fresh active file — the fullest shape a live WAL takes.
	if _, err := in.wal.Rotate(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := in.Ingest(ctx, strings.NewReader(feed(8, 10))); err != nil {
		t.Fatal(err)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := LoadSnapshot(path + ".snap")
	if err != nil || snap == nil || snap.Upto == 0 {
		t.Fatalf("snapshot not written: %+v, %v", snap, err)
	}
	if segs, err := SealedSegmentPaths(path); err != nil || len(segs) != 1 {
		t.Fatalf("sealed segments beyond the snapshot: %v, %v", segs, err)
	}

	covered, err := CheckWAL(path)
	if err != nil || covered != 0 {
		t.Fatalf("CheckWAL = %d, %v; want 0, nil", covered, err)
	}
	// A compaction that crashed mid-delete leaves a folded segment
	// behind: harmless residue that CheckWAL counts and never scans.
	if err := os.WriteFile(segName(path, snap.Upto), []byte("folded away"), 0o644); err != nil {
		t.Fatal(err)
	}
	if covered, err := CheckWAL(path); err != nil || covered != 1 {
		t.Fatalf("CheckWAL with residue = %d, %v; want 1, nil", covered, err)
	}
}

// A deleted sealed segment is a replay gap the coverage proof must
// refuse loudly, naming the missing sequence.
func TestWALCoverageRefusesGap(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	path := filepath.Join(dir, "g.wal")
	w, err := OpenWALAfter(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for seg := 0; seg < 3; seg++ {
		if err := w.Append(ctx, []Reading{{X: seg, Y: 0, T: seg, V: 1}}); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Rotate(ctx); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	if _, err := CheckWAL(path); err != nil {
		t.Fatalf("intact log: %v", err)
	}
	if err := os.Remove(segName(path, 2)); err != nil {
		t.Fatal(err)
	}
	_, err = CheckWAL(path)
	if !errors.Is(err, ErrWALCorrupt) || !strings.Contains(err.Error(), "2 missing") {
		t.Fatalf("gap: %v, want ErrWALCorrupt naming segment 2", err)
	}
	// Recovery walks the same split: it refuses the gap before deleting
	// the segment a snapshot at base 1 would cover.
	if _, err := OpenWALAfter(path, 1, nil); !errors.Is(err, ErrWALCorrupt) || !strings.Contains(err.Error(), "2 missing") {
		t.Fatalf("recovery over the gap: %v, want ErrWALCorrupt naming segment 2", err)
	}
	if _, err := os.Stat(segName(path, 1)); err != nil {
		t.Fatalf("a refused recovery deleted a covered segment: %v", err)
	}
}

// A torn tail is the active file's legal crash signature — reported,
// not refused — but on a sealed segment it is corruption.
func TestWALCoverageTornTails(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	path := filepath.Join(dir, "t.wal")
	w, err := OpenWALAfter(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(ctx, []Reading{{X: 1, Y: 1, T: 1, V: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Rotate(ctx); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(ctx, []Reading{{X: 2, Y: 2, T: 2, V: 2}}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	appendBytes := func(p string, b []byte) {
		f, err := os.OpenFile(p, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(b); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	appendBytes(path, []byte{0xde, 0xad})
	if _, err := CheckWAL(path); err != nil {
		t.Fatalf("torn active: %v", err)
	}

	sealed := segName(path, 1)
	clean, err := os.ReadFile(sealed)
	if err != nil {
		t.Fatal(err)
	}
	appendBytes(sealed, []byte{0xbe, 0xef})
	if _, err := CheckWAL(path); !errors.Is(err, ErrWALCorrupt) || !strings.Contains(err.Error(), sealed) {
		t.Fatalf("torn sealed segment: %v, want ErrWALCorrupt naming %s", err, sealed)
	}
	// VerifySegmentBytes mirrors the same rule for the scrubber.
	raw, _ := os.ReadFile(segName(path, 1))
	if err := VerifySegmentBytes(raw, segName(path, 1), true); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("VerifySegmentBytes sealed: %v, want ErrWALCorrupt", err)
	}
	if err := VerifySegmentBytes(raw, segName(path, 1), false); err != nil {
		t.Fatalf("VerifySegmentBytes unsealed tolerates a torn tail: %v", err)
	}

	// A flipped payload byte is a checksum failure, refused naming the
	// segment it sits in.
	clean[len(clean)-1] ^= 0x01
	if err := os.WriteFile(sealed, clean, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := CheckWAL(path); !errors.Is(err, ErrWALCorrupt) || !strings.Contains(err.Error(), sealed) {
		t.Fatalf("flipped sealed segment: %v, want ErrWALCorrupt naming %s", err, sealed)
	}
}
