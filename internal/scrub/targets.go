package scrub

import (
	"fmt"
	"hash/crc32"
	"os"

	"repro/internal/dp"
	"repro/internal/ingest"
	"repro/internal/pipeline"
	"repro/internal/serve"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CRC32C returns a Check verifying a file image against the serve
// catalog's checksum regime (CRC-32C plus exact size; size < 0 skips
// the size check).
func CRC32C(size int64, sum uint32) func([]byte) error {
	return func(data []byte) error {
		if size >= 0 && int64(len(data)) != size {
			return fmt.Errorf("scrub: size %d, catalog says %d", len(data), size)
		}
		if got := crc32.Checksum(data, castagnoli); got != sum {
			return fmt.Errorf("scrub: crc32c %08x, catalog says %08x", got, sum)
		}
		return nil
	}
}

// ChecksumIEEE returns a Check verifying a file image against a
// journalled CRC-32 (IEEE) checksum — the regime the pipeline manifest
// records for releases. size < 0 skips the size check.
func ChecksumIEEE(size int64, sum uint32) func([]byte) error {
	return func(data []byte) error {
		if size >= 0 && int64(len(data)) != size {
			return fmt.Errorf("scrub: size %d, journal says %d", len(data), size)
		}
		if got := crc32.ChecksumIEEE(data); got != sum {
			return fmt.Errorf("scrub: crc32 %08x, journal says %08x", got, sum)
		}
		return nil
	}
}

// StoreTargets enumerates a serve store's loaded releases: every file
// the catalog would vouch for, verified against the size and CRC-32C the
// store hashed at load time. Releases loaded from memory (no Source) are
// skipped — there is no at-rest artifact to rot.
func StoreTargets(store *serve.Store) func() []Target {
	return func() []Target {
		rels, _ := store.Snapshot()
		var out []Target
		for _, rel := range rels {
			src := rel.Source
			if src == nil || src.Path == "" {
				continue
			}
			out = append(out, Target{
				Kind:  "release",
				Path:  src.Path,
				Check: CRC32C(src.Size, src.CRC),
			})
		}
		return out
	}
}

// PipelineTargets enumerates a continual-release pipeline's at-rest
// artifacts: the window manifest and ε ledger (full read-only journal
// scans), the WAL snapshot and sealed segments, every published window
// file against its journalled release checksum, and latest.csv against
// the newest published window. Journals and WAL files are Live — a
// running daemon holds them open, so they quarantine by copy. The
// active WAL segment is deliberately not scrubbed: its torn tail is a
// legal crash signature and its bytes change under every append, so
// verification belongs to recovery, not the scrubber. Empty arguments
// disable their artifact group.
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
			if sealed, err := ingest.SealedSegmentPaths(walPath); err == nil {
				for _, seg := range sealed {
					seg := seg
					out = append(out, Target{
						Kind: "wal-segment", Path: seg, Live: true,
						Check: func(data []byte) error {
							return ingest.VerifySegmentBytes(data, seg, true)
						},
					})
				}
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
	released := map[int]uint32{}
	var out []Target
	newest := 0
	for _, rec := range recs {
		switch rec.State {
		case pipeline.StateReleased:
			released[rec.Window] = rec.Checksum
		case pipeline.StatePublished:
			sum, ok := released[rec.Window]
			if !ok {
				continue
			}
			out = append(out, Target{
				Kind:  "window",
				Path:  pipeline.WindowPath(outDir, rec.Window),
				Check: ChecksumIEEE(-1, sum),
			})
			if rec.Window > newest {
				newest = rec.Window
			}
		}
	}
	if newest > 0 {
		out = append(out, Target{
			Kind:  "latest",
			Path:  pipeline.LatestPath(outDir),
			Check: ChecksumIEEE(-1, released[newest]),
		})
	}
	return out
}
