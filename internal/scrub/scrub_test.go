package scrub

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/resilience"
)

// castagnoli hashes test artifacts the way the serve catalog does.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func writeFile(t *testing.T, path, content string) uint32 {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return crc32.Checksum([]byte(content), castagnoli)
}

func fixedTargets(ts ...Target) func() []Target {
	return func() []Target { return ts }
}

// A clean pass touches every target, bumps the pass counter, and
// latches nothing.
func TestScrubCleanPass(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rel.csv")
	sum := writeFile(t, path, "a,b,c\n")
	sc, err := New(Config{Targets: fixedTargets(Target{
		Kind: "release", Path: path, Check: CRC32C(6, sum),
	})})
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.RunPass(context.Background()); err != nil {
		t.Fatal(err)
	}
	passes, corrupt, repaired, quarantined := sc.ScrubCounts()
	if passes != 1 || corrupt != 0 || repaired != 0 || quarantined != 0 {
		t.Fatalf("counts: %d %d %d %d", passes, corrupt, repaired, quarantined)
	}
	if got := sc.CorruptArtifacts(); len(got) != 0 {
		t.Fatalf("latched: %v", got)
	}
}

// On-disk rot is detected, quarantined by rename (immutable artifact),
// and latched; a later clean verify clears the latch.
func TestScrubDetectsQuarantinesAndClears(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rel.csv")
	content := "1,2,3\n"
	sum := writeFile(t, path, content)
	sc, err := New(Config{Targets: fixedTargets(Target{
		Kind: "release", Path: path, Check: CRC32C(int64(len(content)), sum),
	})})
	if err != nil {
		t.Fatal(err)
	}

	// Rot one byte.
	raw, _ := os.ReadFile(path)
	raw[0] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := sc.RunPass(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := sc.CorruptArtifacts(); len(got) != 1 || got[0] != path {
		t.Fatalf("latched %v, want [%s]", got, path)
	}
	if _, err := os.Lstat(path); !os.IsNotExist(err) {
		t.Fatal("damaged artifact was not quarantined away")
	}
	if ev, err := os.ReadFile(path + ".corrupt"); err != nil || string(ev) != string(raw) {
		t.Fatalf("evidence: %q, %v", ev, err)
	}
	_, corrupt, _, quarantined := sc.ScrubCounts()
	if corrupt != 1 || quarantined != 1 {
		t.Fatalf("corrupt=%d quarantined=%d", corrupt, quarantined)
	}

	// Restore the true bytes (an operator repair): next pass clears.
	writeFile(t, path, content)
	if err := sc.RunPass(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := sc.CorruptArtifacts(); len(got) != 0 {
		t.Fatalf("latch survived a clean verify: %v", got)
	}
}

// Scrubbing the same re-materialised corrupt file twice preserves both
// generations of evidence (satellite: quarantine naming collisions
// through the scrubber itself).
func TestScrubQuarantineCollision(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rel.csv")
	sum := writeFile(t, path, "good\n")
	sc, err := New(Config{Targets: fixedTargets(Target{
		Kind: "release", Path: path, Check: CRC32C(5, sum),
	})})
	if err != nil {
		t.Fatal(err)
	}

	writeFile(t, path, "rot1\n")
	if err := sc.RunPass(context.Background()); err != nil {
		t.Fatal(err)
	}
	writeFile(t, path, "rot2\n")
	if err := sc.RunPass(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path + ".corrupt"); string(got) != "rot1\n" {
		t.Fatalf("first evidence clobbered: %q", got)
	}
	if got, _ := os.ReadFile(path + ".corrupt.1"); string(got) != "rot2\n" {
		t.Fatalf("second evidence missing: %q", got)
	}
}

// A FaultScrubRead hook flipping bytes in flight makes the first read
// look corrupt — but the confirm re-read sees clean disk, so nothing is
// quarantined and nothing latches. The scrubber never mistakes its own
// IO path for rot.
func TestScrubReadFaultBitFlipNotMistakenForRot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rel.csv")
	sum := writeFile(t, path, "pristine\n")
	sc, err := New(Config{Targets: fixedTargets(Target{
		Kind: "release", Path: path, Check: CRC32C(9, sum),
	})})
	if err != nil {
		t.Fatal(err)
	}
	var fired atomic.Int64
	inj := resilience.NewInjector()
	inj.On(resilience.FaultScrubRead, func(_ context.Context, payload any) error {
		fired.Add(1)
		payload.(*Chunk).Data[0] ^= 0xff
		return nil
	})
	ctx := resilience.WithInjector(context.Background(), inj)
	if err := sc.RunPass(ctx); err != nil {
		t.Fatal(err)
	}
	if fired.Load() == 0 {
		t.Fatal("fault hook never fired")
	}
	if got := sc.CorruptArtifacts(); len(got) != 0 {
		t.Fatalf("transient read corruption was latched: %v", got)
	}
	if _, err := os.Lstat(path); err != nil {
		t.Fatalf("pristine file was quarantined: %v", err)
	}
}

// A failing repair leaves the latch in place; a succeeding, verified
// repair clears it and counts.
func TestScrubRepairOutcomes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rel.csv")
	content := "truth\n"
	sum := writeFile(t, path, content)
	repairWorks := false
	sc, err := New(Config{
		Targets: fixedTargets(Target{
			Kind: "release", Path: path, Check: CRC32C(int64(len(content)), sum),
		}),
		Repair: func(ctx context.Context, tg Target) error {
			if err := resilience.Fire(ctx, resilience.FaultRepairFetch, tg.Path); err != nil {
				return err
			}
			if !repairWorks {
				return errors.New("peer unreachable")
			}
			return os.WriteFile(path, []byte(content), 0o644)
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Round 1: repair refused through the fault point → latch stays.
	inj := resilience.NewInjector()
	inj.On(resilience.FaultRepairFetch, func(context.Context, any) error { return errors.New("injected: peer down") })
	ctx := resilience.WithInjector(context.Background(), inj)
	writeFile(t, path, "rotten\n")
	if err := sc.RunPass(ctx); err != nil {
		t.Fatal(err)
	}
	if got := sc.CorruptArtifacts(); len(got) != 1 {
		t.Fatalf("failed repair must leave the latch: %v", got)
	}
	if _, _, repaired, _ := sc.ScrubCounts(); repaired != 0 {
		t.Fatalf("repaired=%d after a failed repair", repaired)
	}

	// Round 2: the artifact is quarantined away (missing file is clean —
	// nothing to verify), so re-rot it and let the repair succeed.
	repairWorks = true
	writeFile(t, path, "rotten2\n")
	if err := sc.RunPass(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := sc.CorruptArtifacts(); len(got) != 0 {
		t.Fatalf("latch survived a verified repair: %v", got)
	}
	if _, _, repaired, _ := sc.ScrubCounts(); repaired != 1 {
		t.Fatalf("repaired=%d, want 1", repaired)
	}
	if got, _ := os.ReadFile(path); string(got) != content {
		t.Fatalf("repair left %q", got)
	}
}

// An artifact the target set still advertises but that is gone from
// disk — including one an earlier pass quarantined away — stays latched
// pass after pass until the bytes come back clean. A latch must never
// decay just because the evidence was moved aside.
func TestScrubMissingArtifactStaysLatched(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rel.csv")
	content := "payload\n"
	sum := writeFile(t, path, content)
	sc, err := New(Config{Targets: fixedTargets(Target{
		Kind: "release", Path: path, Check: CRC32C(int64(len(content)), sum),
	})})
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, path, "rotted!\n")
	// Pass 1 quarantines the file away; passes 2 and 3 see it missing.
	for i := 0; i < 3; i++ {
		if err := sc.RunPass(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := sc.CorruptArtifacts(); len(got) != 1 || got[0] != path {
			t.Fatalf("pass %d: latched %v, want [%s]", i+1, got, path)
		}
	}
	_, corrupt, _, quarantined := sc.ScrubCounts()
	if corrupt != 1 || quarantined != 1 {
		t.Fatalf("corrupt=%d quarantined=%d, want 1, 1 (no re-count, no re-quarantine)", corrupt, quarantined)
	}
	// The artifact comes back (a doctor repair): the latch clears.
	writeFile(t, path, content)
	if err := sc.RunPass(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := sc.CorruptArtifacts(); len(got) != 0 {
		t.Fatalf("latch survived restoration: %v", got)
	}
}

// The byte/sec throttle stretches a pass to at least bytes/rate.
func TestScrubThrottle(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "big.bin")
	big := make([]byte, 64<<10)
	for i := range big {
		big[i] = byte(i)
	}
	if err := os.WriteFile(path, big, 0o644); err != nil {
		t.Fatal(err)
	}
	sum := crc32.Checksum(big, castagnoli)
	sc, err := New(Config{
		BytesPerSec: 256 << 10, // 64KiB at 256KiB/s = 250ms minimum
		Targets: fixedTargets(Target{
			Kind: "blob", Path: path, Check: CRC32C(int64(len(big)), sum),
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := sc.RunPass(context.Background()); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 200*time.Millisecond {
		t.Fatalf("throttled pass took %s, want >= ~250ms", elapsed)
	}
}

// An unreadable sector (read error through the fault point) must not
// quarantine anything when the confirm re-read succeeds.
func TestScrubSurvivesReadError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rel.csv")
	sum := writeFile(t, path, "okay\n")
	sc, err := New(Config{Targets: fixedTargets(Target{
		Kind: "release", Path: path, Check: CRC32C(5, sum),
	})})
	if err != nil {
		t.Fatal(err)
	}
	inj := resilience.NewInjector()
	first := true
	inj.On(resilience.FaultScrubRead, func(context.Context, any) error {
		if first {
			first = false
			return fmt.Errorf("injected: IO error")
		}
		return nil
	})
	if err := sc.RunPass(resilience.WithInjector(context.Background(), inj)); err != nil {
		t.Fatal(err)
	}
	if got := sc.CorruptArtifacts(); len(got) != 0 {
		t.Fatalf("transient IO error latched: %v", got)
	}
	if _, err := os.Lstat(path); err != nil {
		t.Fatalf("file quarantined on transient IO error: %v", err)
	}
}
