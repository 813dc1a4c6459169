package scrub

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/dp"
	"repro/internal/ingest"
	"repro/internal/pipeline"
	"repro/internal/resilience"
)

const (
	fsCx, fsCy, fsCt = 2, 2, 12
	fsWindow         = 3 // → 4 published windows
	fsEps            = 0.5
	fsDataset        = "stream"
)

type fsckHarness struct {
	dir string
	in  *ingest.Ingester
	cfg FsckConfig
}

// newFsckHarness runs a real pipeline end-to-end — ingest, ledger,
// manifest, four published windows — and returns the FsckConfig that
// audits it. compactBatches > 0 turns on the ingester's snapshot
// compaction. The ingester stays open so tests can re-freeze a window's
// cut (staging is swept once a window completes).
func newFsckHarness(t *testing.T, compactBatches int) *fsckHarness {
	t.Helper()
	ctx := context.Background()
	dir := t.TempDir()
	in, err := ingest.New(ingest.Config{Cx: fsCx, Cy: fsCy, Ct: fsCt, BatchSize: 8, CompactBatches: compactBatches},
		filepath.Join(dir, "feed.wal"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { in.Close() })
	led, err := dp.OpenLedger(filepath.Join(dir, "ledger"))
	if err != nil {
		t.Fatal(err)
	}
	man, err := pipeline.OpenManifest(filepath.Join(dir, "manifest"))
	if err != nil {
		t.Fatal(err)
	}
	sup, err := pipeline.New(pipeline.Config{
		Dataset: fsDataset, EpsNode: fsEps, Window: fsWindow,
		OutDir: filepath.Join(dir, "out"), Seed: 42,
	}, in, led, man)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for tt := 0; tt < fsCt; tt++ {
		for y := 0; y < fsCy; y++ {
			for x := 0; x < fsCx; x++ {
				fmt.Fprintf(&sb, "%d,%d,%d,%g\n", x, y, tt, float64(1+x+2*y+4*tt)/4)
			}
		}
	}
	if _, _, err := in.Ingest(ctx, strings.NewReader(sb.String())); err != nil {
		t.Fatal(err)
	}
	if err := sup.RunOnce(ctx); err != nil {
		t.Fatal(err)
	}
	led.Close()
	man.Close()
	return &fsckHarness{dir: dir, in: in, cfg: FsckConfig{
		OutDir:   filepath.Join(dir, "out"),
		Manifest: filepath.Join(dir, "manifest"),
		Ledger:   filepath.Join(dir, "ledger"),
		Dataset:  fsDataset,
		EpsNode:  fsEps,
		WAL:      filepath.Join(dir, "feed.wal"),
	}}
}

// refreezeCut re-materialises window w's frozen cut from the ingester's
// committed matrix — byte-identical to the original cut, since the full
// feed was committed before the run and nothing arrived after.
func (h *fsckHarness) refreezeCut(t *testing.T, w int) {
	t.Helper()
	m, err := h.in.CutWindow((w-1)*fsWindow, w*fsWindow)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(pipeline.CutPath(h.cfg.OutDir, w))
	if err != nil {
		t.Fatal(err)
	}
	if err := datasets.SaveMatrixCSV(m, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func flipByte(t *testing.T, path string, i int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[i] ^= 0x20
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func findingByCode(rep *Report, code string) *Finding {
	for i := range rep.Findings {
		if rep.Findings[i].Code == code {
			return &rep.Findings[i]
		}
	}
	return nil
}

// A green end-to-end run audits clean: every invariant holds, zero
// error findings, and the spend equation is among what was checked.
func TestFsckCleanRun(t *testing.T) {
	h := newFsckHarness(t, 0)
	rep, err := Fsck(context.Background(), h.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors() != 0 {
		t.Fatalf("clean run has %d error findings: %+v", rep.Errors(), rep.Findings)
	}
	// manifest + 4 windows + latest + ledger + spend + wal = 8 checks.
	if rep.Checked < 8 {
		t.Fatalf("only %d invariants checked", rep.Checked)
	}
}

// A run whose WAL compacted along the way — snapshot plus active tail,
// covered segments deleted — audits exactly as clean.
func TestFsckCleanRunCompacted(t *testing.T) {
	h := newFsckHarness(t, 2)
	// 48 readings in batches of 8, a snapshot every 2 batches.
	if n := h.in.Stats().Compactions; n != 3 {
		t.Fatalf("harness compacted %d times, want 3", n)
	}
	rep, err := Fsck(context.Background(), h.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors() != 0 {
		t.Fatalf("compacted run has %d error findings: %+v", rep.Errors(), rep.Findings)
	}
	if rep.Checked < 8 {
		t.Fatalf("only %d invariants checked", rep.Checked)
	}
}

// A damaged window file is found by CRC, planned as rebuild-from-cut
// when the frozen cut exists, and Apply restores it byte-identically —
// the journalled checksum proves the rebuild reproduced the original
// noise draw exactly.
func TestFsckRebuildsWindowFromCut(t *testing.T) {
	ctx := context.Background()
	h := newFsckHarness(t, 0)
	target := pipeline.WindowPath(h.cfg.OutDir, 2)
	golden, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	flipByte(t, target, len(golden)/2)
	h.refreezeCut(t, 2)

	rep, err := Fsck(ctx, h.cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := findingByCode(rep, "window-crc-mismatch")
	if f == nil || f.Repair == nil || f.Repair.Kind != RepairRebuildFromCut || f.Repair.Window != 2 {
		t.Fatalf("finding: %+v", f)
	}
	applied, err := Apply(ctx, h.cfg, rep)
	if err != nil || applied != 1 {
		t.Fatalf("apply: %d, %v", applied, err)
	}
	got, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(golden) {
		t.Fatal("rebuilt window is not byte-identical to the original release")
	}
	rep, err = Fsck(ctx, h.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors() != 0 {
		t.Fatalf("errors remain after repair: %+v", rep.Findings)
	}
}

// Without the frozen cut the window finding carries no repair plan and
// says so — the seed is useless without the raw bytes it noised.
func TestFsckWindowUnrepairableWithoutCut(t *testing.T) {
	h := newFsckHarness(t, 0)
	target := pipeline.WindowPath(h.cfg.OutDir, 3)
	flipByte(t, target, 10)

	rep, err := Fsck(context.Background(), h.cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := findingByCode(rep, "window-crc-mismatch")
	if f == nil || f.Repair != nil {
		t.Fatalf("finding: %+v", f)
	}
	if !strings.Contains(f.Detail, "unrepairable") {
		t.Fatalf("detail does not explain why: %q", f.Detail)
	}
	if applied, err := Apply(context.Background(), h.cfg, rep); err != nil || applied != 0 {
		t.Fatalf("apply on an unrepairable plan: %d, %v", applied, err)
	}
}

// A damaged latest.csv is repaired by rewriting it from the newest
// published window, which still carries the journalled checksum.
func TestFsckRewritesLatest(t *testing.T) {
	ctx := context.Background()
	h := newFsckHarness(t, 0)
	latest := pipeline.LatestPath(h.cfg.OutDir)
	flipByte(t, latest, 3)

	rep, err := Fsck(ctx, h.cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := findingByCode(rep, "latest-crc-mismatch")
	if f == nil || f.Repair == nil || f.Repair.Kind != RepairRewriteLatest {
		t.Fatalf("finding: %+v", f)
	}
	if _, err := Apply(ctx, h.cfg, rep); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(latest)
	want, _ := os.ReadFile(pipeline.WindowPath(h.cfg.OutDir, 4))
	if string(got) != string(want) {
		t.Fatal("latest.csv was not rewritten from the newest window")
	}
}

// An extra ledger charge the manifest never journalled breaks the
// spend equation: spent ε must equal ExpectedSpend(charged windows)
// exactly.
func TestFsckLedgerSpendDivergence(t *testing.T) {
	h := newFsckHarness(t, 0)
	led, err := dp.OpenLedger(h.cfg.Ledger)
	if err != nil {
		t.Fatal(err)
	}
	if err := led.Charge(context.Background(),
		dp.LedgerEntry{Dataset: fsDataset, EpsPattern: fsEps}, 0); err != nil {
		t.Fatal(err)
	}
	led.Close()

	rep, err := Fsck(context.Background(), h.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f := findingByCode(rep, "ledger-spend-divergence"); f == nil {
		t.Fatalf("rogue charge not detected: %+v", rep.Findings)
	}
}

// Interior ledger damage is an error finding carrying the typed fault's
// line/offset detail.
func TestFsckLedgerCorruption(t *testing.T) {
	h := newFsckHarness(t, 0)
	raw, err := os.ReadFile(h.cfg.Ledger)
	if err != nil {
		t.Fatal(err)
	}
	flipByte(t, h.cfg.Ledger, len(raw)/3)
	rep, err := Fsck(context.Background(), h.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f := findingByCode(rep, "ledger-corrupt"); f == nil {
		t.Fatalf("ledger damage not detected: %+v", rep.Findings)
	}
}

// A log the snapshot already covers — a compaction stopped before its
// reset — is a warning: the next open restarts it. A log past
// generation 1 with no snapshot has lost the snapshot of the
// generations before it: a replay gap fsck must refuse.
func TestFsckWALGap(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "g.wal")
	cfg := ingest.Config{Cx: 2, Cy: 2, Ct: 4, BatchSize: 4}
	in, err := ingest.New(cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := in.Ingest(ctx, strings.NewReader("0,0,0,1\n1,1,1,2\n")); err != nil {
		t.Fatal(err)
	}
	stop := resilience.NewInjector().On(resilience.FaultWALReset, func(context.Context, any) error {
		return errors.New("injected: reset stopped")
	})
	if err := in.Compact(resilience.WithInjector(ctx, stop)); err == nil {
		t.Fatal("compaction with a failing reset succeeded")
	}
	in.Close()
	rep, err := Fsck(ctx, FsckConfig{WAL: path})
	if err != nil {
		t.Fatal(err)
	}
	if f := findingByCode(rep, "wal-covered-residue"); rep.Errors() != 0 || f == nil || f.Severity != SeverityWarn {
		t.Fatalf("covered log: %+v, want one wal-covered-residue warning", rep.Findings)
	}

	// Recovery restarts the log at generation 2; without its snapshot,
	// generation 1's batches are nowhere.
	in, err = ingest.New(cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	in.Close()
	if err := os.Remove(path + ".snap"); err != nil {
		t.Fatal(err)
	}
	rep, err = Fsck(ctx, FsckConfig{WAL: path})
	if err != nil {
		t.Fatal(err)
	}
	if f := findingByCode(rep, "wal-coverage-broken"); f == nil || !strings.Contains(f.Detail, "generation 2") {
		t.Fatalf("gap not detected: %+v", rep.Findings)
	}
}

// Quarantined evidence left on disk is a warning, never an error: the
// system is healthy, the residue just wants triage.
func TestFsckQuarantineResidueWarns(t *testing.T) {
	h := newFsckHarness(t, 0)
	ev := pipeline.WindowPath(h.cfg.OutDir, 1) + ".corrupt"
	if err := os.WriteFile(ev, []byte("old evidence"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Fsck(context.Background(), h.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors() != 0 {
		t.Fatalf("residue raised errors: %+v", rep.Findings)
	}
	f := findingByCode(rep, "quarantine-residue")
	if f == nil || f.Severity != SeverityWarn || f.Artifact != ev {
		t.Fatalf("finding: %+v", f)
	}
}

// TestScrubPipelineTargetsAgreeWithFsck: the pipeline daemon's scrub
// list and stpt-doctor audit one inventory. For every artifact kind
// PipelineTargets lists, one damaged file is latched — alone — by a
// single scrub pass, and every error finding Fsck reports names that
// same file: as its artifact, or for the snapshot in the
// wal-coverage-broken detail.
func TestScrubPipelineTargetsAgreeWithFsck(t *testing.T) {
	for _, kind := range []string{"window", "latest", "manifest", "ledger", "snapshot"} {
		t.Run(kind, func(t *testing.T) {
			ctx := context.Background()
			h := newFsckHarness(t, 2)
			targets := PipelineTargets(h.cfg.OutDir, h.cfg.Manifest, h.cfg.Ledger, h.cfg.WAL)
			listed := map[string]string{}
			for _, tg := range targets() {
				if _, ok := listed[tg.Kind]; !ok {
					listed[tg.Kind] = tg.Path
				}
			}
			if len(listed) != 5 {
				t.Fatalf("PipelineTargets lists kinds %v, want all five", listed)
			}
			victim := listed[kind]
			raw, err := os.ReadFile(victim)
			if err != nil {
				t.Fatal(err)
			}
			// An interior byte: a journal's torn final line is tolerated.
			raw[len(raw)/3] ^= 0x01
			if err := os.WriteFile(victim, raw, 0o644); err != nil {
				t.Fatal(err)
			}

			sc, err := New(Config{Targets: targets})
			if err != nil {
				t.Fatal(err)
			}
			if err := sc.RunPass(ctx); err != nil {
				t.Fatal(err)
			}
			if got := sc.CorruptArtifacts(); len(got) != 1 || got[0] != victim {
				t.Fatalf("scrubber latched %v, want [%s]", got, victim)
			}

			rep, err := Fsck(ctx, h.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Errors() == 0 {
				t.Fatalf("fsck found nothing wrong with %s: %+v", victim, rep.Findings)
			}
			for _, f := range rep.Findings {
				if f.Severity != SeverityError {
					continue
				}
				names := f.Artifact == victim ||
					f.Code == "wal-coverage-broken" && strings.Contains(f.Detail, victim)
				if !names {
					t.Fatalf("fsck error finding does not name %s: %+v", victim, f)
				}
			}
		})
	}
}
