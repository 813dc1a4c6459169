package ingest

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/journal"
	"repro/internal/resilience"
)

// TestIngestOneWriter: while an ingester holds its WAL, a second New —
// which would delete the sealed segment the snapshot already covers and
// truncate the active segment's torn tail — is refused with
// journal.ErrLocked, naming the WAL, before it touches either. Once the
// holder is closed, New recovers the same matrix and finishes both jobs.
func TestIngestOneWriter(t *testing.T) {
	const cx, cy, ct = 6, 5, 12
	ctx := context.Background()
	dir := t.TempDir()
	wal := filepath.Join(dir, "held.wal")
	cfg := Config{Cx: cx, Cy: cy, Ct: ct, BatchSize: 16}
	readings := genReadings(64, cx, cy, ct, 5)

	in, err := New(cfg, wal)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	if _, _, err := in.Ingest(ctx, strings.NewReader(readingsCSV(readings[:32]))); err != nil {
		t.Fatal(err)
	}
	// The snapshot commits but the covered segment's delete fails, so
	// segment 1 stays on disk for the next open to sweep.
	keep := resilience.NewInjector().On(resilience.FaultCompactDelete, func(context.Context, any) error {
		return errors.New("injected delete failure")
	})
	if err := in.Compact(resilience.WithInjector(ctx, keep)); err == nil {
		t.Fatal("compaction with a failing delete succeeded")
	}
	if _, _, err := in.Ingest(ctx, strings.NewReader(readingsCSV(readings[32:]))); err != nil {
		t.Fatal(err)
	}
	// A record the holder is part way through writing: to any other
	// opener, a torn tail.
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before := dirFiles(t, dir)
	if _, ok := before[filepath.Base(segName(wal, 1))]; !ok {
		t.Fatalf("no covered segment on disk: %v", before)
	}

	if _, err := New(cfg, wal); !errors.Is(err, journal.ErrLocked) || !strings.Contains(err.Error(), wal) {
		t.Fatalf("second New on a held WAL: %v, want journal.ErrLocked naming %s", err, wal)
	}
	if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatal("the refused New changed the WAL directory")
	}

	want := in.Snapshot()
	in.Close()
	re, err := New(cfg, wal)
	if err != nil {
		t.Fatalf("New after the holder closed: %v", err)
	}
	defer re.Close()
	if !matricesEqual(re.Snapshot(), want) {
		t.Fatal("recovered matrix differs from the holder's")
	}
	after := dirFiles(t, dir)
	if _, ok := after[filepath.Base(segName(wal, 1))]; ok {
		t.Fatal("recovery left the covered segment on disk")
	}
	if got, held := len(after["held.wal"]), len(before["held.wal"]); got != held-3 {
		t.Fatalf("active segment is %d bytes after recovery, want the torn tail of %d bytes cut to %d", got, held, held-3)
	}
}

// dirFiles reads every file in dir, by name.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}
	return files
}
