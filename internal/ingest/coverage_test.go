package ingest

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/resilience"
)

// A compacted WAL — a snapshot plus a restarted log holding the batches
// since — proves its coverage, and a log that a compaction stopped
// between its snapshot and its reset left covered is reported, not
// refused; the next open restarts it.
func TestWALCoverageRotatedCompacted(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "feed.wal")
	cfg := Config{Cx: 2, Cy: 2, Ct: 16, BatchSize: 2}
	in, err := New(cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	if _, _, err := in.Ingest(ctx, strings.NewReader(readingsCSV(genReadings(16, 2, 2, 16, 1)))); err != nil {
		t.Fatal(err)
	}
	if err := in.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := in.Ingest(ctx, strings.NewReader(readingsCSV(genReadings(16, 2, 2, 16, 2)))); err != nil {
		t.Fatal(err)
	}
	if snap, err := LoadSnapshot(path + ".snap"); err != nil || snap == nil || snap.Upto != 1 || in.wal.gen != 2 {
		t.Fatalf("snapshot %+v (%v) beside a log of generation %d, want 1 and 2", snap, err, in.wal.gen)
	}
	if covered, err := CheckWAL(path); err != nil || covered {
		t.Fatalf("CheckWAL = %v, %v; want false, nil", covered, err)
	}

	// The second compaction commits its snapshot, then stops before the
	// reset.
	stop := resilience.NewInjector().On(resilience.FaultWALReset, func(context.Context, any) error {
		return errors.New("injected: reset stopped")
	})
	if err := in.Compact(resilience.WithInjector(ctx, stop)); !errors.Is(err, ErrWALPoisoned) {
		t.Fatalf("compaction whose reset failed: %v, want ErrWALPoisoned", err)
	}
	if covered, err := CheckWAL(path); err != nil || !covered {
		t.Fatalf("CheckWAL of a covered log = %v, %v; want true, nil", covered, err)
	}
	want := in.Snapshot()
	in.Close()
	re, err := New(cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !matricesEqual(re.Snapshot(), want) || re.wal.gen != 3 || re.wal.Records() != 0 {
		t.Fatalf("recovery over a covered log: generation %d, %d records", re.wal.gen, re.wal.Records())
	}
	if covered, err := CheckWAL(path); err != nil || covered {
		t.Fatalf("CheckWAL after the restart = %v, %v; want false, nil", covered, err)
	}
}

// A log more than one generation past its snapshot — the snapshot of
// the generations between is lost — is a replay gap both the audit and
// recovery refuse, naming the log; so is a log past generation 1 with
// no snapshot at all.
func TestWALCoverageRefusesGap(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "g.wal")
	cfg := Config{Cx: 2, Cy: 2, Ct: 16, BatchSize: 4}
	in, err := New(cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	var first []byte
	for gen := 0; gen < 2; gen++ {
		if _, _, err := in.Ingest(ctx, strings.NewReader(readingsCSV(genReadings(4, 2, 2, 16, int64(gen))))); err != nil {
			t.Fatal(err)
		}
		if err := in.Compact(ctx); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			if first, err = os.ReadFile(path + ".snap"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, _, err := in.Ingest(ctx, strings.NewReader(readingsCSV(genReadings(4, 2, 2, 16, 3)))); err != nil {
		t.Fatal(err)
	}
	in.Close()
	if _, err := CheckWAL(path); err != nil {
		t.Fatalf("intact log: %v", err)
	}
	log, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Generation 2's snapshot is lost: the log at generation 3 follows
	// a snapshot of generation 1.
	if err := os.WriteFile(path+".snap", first, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"stale snapshot", "no snapshot"} {
		if stage == "no snapshot" {
			if err := os.Remove(path + ".snap"); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := CheckWAL(path); !errors.Is(err, ErrWALCorrupt) || !strings.Contains(err.Error(), path+" is at generation 3") {
			t.Fatalf("%s: audit = %v, want ErrWALCorrupt naming the log's generation", stage, err)
		}
		if _, err := New(cfg, path); !errors.Is(err, ErrWALCorrupt) || !strings.Contains(err.Error(), path) {
			t.Fatalf("%s: recovery = %v, want ErrWALCorrupt naming the log", stage, err)
		}
		if got, _ := os.ReadFile(path); string(got) != string(log) {
			t.Fatalf("%s: a refused recovery changed the log", stage)
		}
	}
}

// A torn tail — or a header a crash cut short — is the log's legal
// crash signature, tolerated by the audit; a flipped byte in a complete
// record is corruption, refused naming the log.
func TestWALCoverageTornTails(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "t.wal")
	w, err := OpenWAL(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if err := w.Append(ctx, []Reading{{X: i, Y: i, T: i, V: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{len(clean) - 3, walHeaderLen - 6, 0} {
		if err := os.WriteFile(path, clean[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if covered, err := CheckWAL(path); err != nil || covered {
			t.Fatalf("log cut to %d bytes: %v, %v", cut, covered, err)
		}
	}
	flipped := append([]byte(nil), clean...)
	flipped[walHeaderLen+recHeaderLen+1] ^= 0x01
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := CheckWAL(path); !errors.Is(err, ErrWALCorrupt) || !strings.Contains(err.Error(), path) {
		t.Fatalf("flipped record: %v, want ErrWALCorrupt naming %s", err, path)
	}
}

// TestCheckWALBesideCompaction: an audit running beside a live
// ingester that compacts over and over reads the log before the
// snapshot, so it sees at worst a covered log — never a generation gap
// that is only the two reads straddling one compaction. The 512 KiB
// snapshot makes each read long enough to be straddled: with the reads
// the other way round, this test failed in each of 30 runs on a 2-vCPU
// container.
func TestCheckWALBesideCompaction(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "live.wal")
	in, err := New(Config{Cx: 32, Cy: 32, Ct: 64, BatchSize: 4}, path)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	const compactions = 60
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < compactions; i++ {
			if _, _, err := in.Ingest(ctx, strings.NewReader(readingsCSV(genReadings(4, 32, 32, 64, int64(i))))); err != nil {
				t.Error(err)
				return
			}
			if err := in.Compact(ctx); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	audits := 0
	for running := true; running; audits++ {
		select {
		case <-done:
			running = false
		default:
		}
		if _, err := CheckWAL(path); err != nil {
			t.Errorf("audit %d beside a compacting ingester: %v", audits, err)
			break
		}
	}
	wg.Wait()
}
