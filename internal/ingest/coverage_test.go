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
// active file — proves gapless coverage, with global batch ordinals
// numbering straight through the snapshot fold.
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
	batches := uint64(in.Stats().Batches)
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}

	cov, err := WALCoverage(path)
	if err != nil {
		t.Fatal(err)
	}
	if cov.SnapshotPath != path+".snap" || cov.SnapshotUpto == 0 {
		t.Fatalf("snapshot not observed: %+v", cov)
	}
	if got := cov.Batches(); got != batches {
		t.Fatalf("coverage proves %d batches, ingester committed %d", got, batches)
	}
	// Ordinals must be contiguous from the snapshot fold onward.
	next := cov.SnapshotBatches + 1
	for _, sc := range cov.Segments {
		if sc.Records == 0 {
			continue
		}
		if sc.First != next {
			t.Fatalf("segment %s covers [%d,%d], want to start at %d", sc.Path, sc.First, sc.Last, next)
		}
		next = sc.Last + 1
		if sc.TornTail {
			t.Fatalf("segment %s reports a torn tail on a clean log", sc.Path)
		}
	}
	// The last segment is the active file; everything before is sealed.
	for i, sc := range cov.Segments {
		if want := i < len(cov.Segments)-1; sc.Sealed != want {
			t.Fatalf("segment %d (%s): sealed=%v, want %v", i, sc.Path, sc.Sealed, want)
		}
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

	if _, err := WALCoverage(path); err != nil {
		t.Fatalf("intact log: %v", err)
	}
	if err := os.Remove(segName(path, 2)); err != nil {
		t.Fatal(err)
	}
	_, err = WALCoverage(path)
	if !errors.Is(err, ErrWALCorrupt) || !strings.Contains(err.Error(), "2 missing") {
		t.Fatalf("gap: %v, want ErrWALCorrupt naming segment 2", err)
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
	cov, err := WALCoverage(path)
	if err != nil {
		t.Fatalf("torn active: %v", err)
	}
	active := cov.Segments[len(cov.Segments)-1]
	if !active.TornTail || active.Records != 1 {
		t.Fatalf("active: torn=%v records=%d, want true, 1", active.TornTail, active.Records)
	}

	appendBytes(segName(path, 1), []byte{0xbe, 0xef})
	if _, err := WALCoverage(path); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("torn sealed segment: %v, want ErrWALCorrupt", err)
	}
	// VerifySegmentBytes mirrors the same rule for the scrubber.
	raw, _ := os.ReadFile(segName(path, 1))
	if err := VerifySegmentBytes(raw, segName(path, 1), true); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("VerifySegmentBytes sealed: %v, want ErrWALCorrupt", err)
	}
	if err := VerifySegmentBytes(raw, segName(path, 1), false); err != nil {
		t.Fatalf("VerifySegmentBytes unsealed tolerates a torn tail: %v", err)
	}
}
