package scrub

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/dp"
	"repro/internal/ingest"
	"repro/internal/pipeline"
	"repro/internal/serve"
)

// CRC32C returns a Check verifying a file image against the serve
// catalog's checksum regime: exact size plus CRC-32C, through the one
// check followers install by (serve.CheckCRC32C).
func CRC32C(size int64, sum uint32) func([]byte) error {
	return func(data []byte) error { return serve.CheckCRC32C(data, size, sum) }
}

// journalled returns a Check verifying a file image against the CRC-32
// (IEEE) a manifest released record journalled for it.
func journalled(sum uint32) func([]byte) error {
	return func(data []byte) error {
		if got := crc32.ChecksumIEEE(data); got != sum {
			return fmt.Errorf("crc %08x, journal says %08x", got, sum)
		}
		return nil
	}
}

// releaseTarget is one release file at rest, verified against the size
// and CRC-32C a catalog vouches for.
func releaseTarget(path string, size int64, sum uint32) Target {
	return Target{Kind: "release", Path: path, Check: CRC32C(size, sum)}
}

// StoreTargets enumerates a serve store's loaded releases: every file
// the catalog would vouch for, verified against the size and CRC-32C the
// store hashed at load time.
func StoreTargets(store *serve.Store) func() []Target {
	return func() []Target {
		rels, _ := store.Snapshot()
		var out []Target
		for _, rel := range rels {
			out = append(out, releaseTarget(rel.Source.Path, rel.Source.Size, rel.Source.CRC))
		}
		return out
	}
}

// catalogTargets enumerates the local copies of every file a peer's
// catalog advertises — the shape StoreTargets builds from a local store,
// with each target planned as a refetch from that peer.
func catalogTargets(cat serve.Catalog, peer, dataDir string) []Target {
	out := make([]Target, 0, len(cat.Files))
	for _, cf := range cat.Files {
		t := releaseTarget(filepath.Join(dataDir, cf.File), cf.Size, cf.CRC)
		t.Repair = &Repair{Kind: RepairRefetchFromPeer, Path: t.Path, Source: peer,
			Name: cf.Name, Size: cf.Size, CRC: cf.CRC}
		out = append(out, t)
	}
	return out
}

// PipelineTargets enumerates a continual-release pipeline's at-rest
// artifacts: the window manifest and ε ledger (full read-only journal
// scans), the WAL snapshot, every published window file against its
// journalled release checksum, and latest.csv against the newest
// published window. It is the one inventory of the pipeline tier: the
// daemon's scrubber re-verifies it in the background and stpt-doctor's
// Fsck audits it offline. Journals and the snapshot are Live — a
// running daemon holds or replaces them, so they quarantine by copy.
// The WAL itself is deliberately not scrubbed: its torn tail is a legal
// crash signature and its bytes change under every append and reset,
// so verification belongs to recovery (and ingest.CheckWAL), not the
// scrubber. Empty arguments disable their artifact group.
//
// Window and latest.csv targets carry the Repair Fsck plans for them:
// rebuild-from-cut while the window's frozen cut is still staged, and
// rewrite-latest from the newest window.
func PipelineTargets(outDir, manifestPath, ledgerPath, walPath string) func() []Target {
	return func() []Target {
		var out []Target
		if manifestPath != "" {
			out = append(out, Target{
				Kind: "manifest", Path: manifestPath, Live: true,
				Check: func(data []byte) error {
					_, _, err := pipeline.ScanManifest(manifestPath, data)
					return err
				},
			})
		}
		if ledgerPath != "" {
			out = append(out, Target{
				Kind: "ledger", Path: ledgerPath, Live: true,
				Check: func(data []byte) error {
					_, err := dp.ScanLedger(ledgerPath, data)
					return err
				},
			})
		}
		if walPath != "" {
			snapPath := walPath + ".snap"
			if _, err := os.Stat(snapPath); err == nil {
				out = append(out, Target{
					Kind: "snapshot", Path: snapPath, Live: true,
					Check: func(data []byte) error {
						_, err := ingest.DecodeSnapshot(data)
						return err
					},
				})
			}
		}
		if outDir != "" && manifestPath != "" {
			out = append(out, windowTargets(outDir, manifestPath)...)
		}
		return out
	}
}

// windowTargets derives the published-window targets from a fresh
// read-only manifest scan: each window that reached published must hold
// exactly the bytes its released record checksummed, and latest.csv
// must mirror the newest published window.
func windowTargets(outDir, manifestPath string) []Target {
	raw, err := os.ReadFile(manifestPath)
	if err != nil {
		return nil
	}
	recs, _, err := pipeline.ScanManifest(manifestPath, raw)
	if err != nil {
		// The manifest target itself reports this; windows can't be
		// audited without a trustworthy journal.
		return nil
	}
	// ScanManifest enforces the lifecycle order, so every published
	// record follows its window's cut and released records, and windows
	// publish in ascending order.
	released := map[int]uint32{}
	var out []Target
	newest := 0
	for _, rec := range recs {
		switch rec.State {
		case pipeline.StateReleased:
			released[rec.Window] = rec.Checksum
		case pipeline.StatePublished:
			w, sum := rec.Window, released[rec.Window]
			t := Target{Kind: "window", Path: pipeline.WindowPath(outDir, w), Check: journalled(sum)}
			cut := pipeline.CutPath(outDir, w)
			if _, err := os.Stat(cut); err == nil {
				t.Repair = &Repair{Kind: RepairRebuildFromCut, Path: t.Path, Source: cut, Window: w, CRC: sum}
			}
			out = append(out, t)
			newest = w
		}
	}
	if newest > 0 {
		latest := pipeline.LatestPath(outDir)
		sum := released[newest]
		out = append(out, Target{
			Kind: "latest", Path: latest, Check: journalled(sum),
			Repair: &Repair{Kind: RepairRewriteLatest, Path: latest,
				Source: pipeline.WindowPath(outDir, newest), Window: newest, CRC: sum},
		})
	}
	return out
}
