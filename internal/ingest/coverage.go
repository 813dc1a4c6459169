package ingest

import (
	"bytes"
	"fmt"
	"os"
)

// CheckWAL walks the log at path strictly read-only — no truncation, no
// handle kept, no covered segment deleted — and proves (or refuses)
// gapless coverage under exactly the rules recovery applies: the
// snapshot decodes, the sealed segments run contiguously from its
// high-water (the split and gap rule OpenWALAfter uses) and parse to
// their last byte, and only the active file may carry a torn tail. Any
// gap or damage is an error wrapping ErrWALCorrupt (or
// ErrSnapshotCorrupt) that names the file refused; a missing active
// file is tolerated (the log may have just rotated).
//
// covered counts the sealed segments the snapshot already folds that
// are still on disk — the leftovers of a compaction that crashed
// between the snapshot commit and the segment deletes, which the next
// open sweeps. It is safe to run against a live ingester: the only
// concurrent mutation of the active file is an append, observed at
// worst as a tolerated torn tail.
func CheckWAL(path string) (covered int, err error) {
	snap, err := LoadSnapshot(path + ".snap")
	if err != nil {
		return 0, err
	}
	var base uint64
	if snap != nil {
		base = snap.Upto
	}
	folded, tail, err := walSegments(path, base)
	if err != nil {
		return 0, err
	}
	for _, seq := range tail {
		name := segName(path, seq)
		raw, err := os.ReadFile(name)
		if err != nil {
			return 0, fmt.Errorf("ingest: reading sealed segment: %w", err)
		}
		if err := VerifySegmentBytes(raw, name, true); err != nil {
			return 0, err
		}
	}
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if snap == nil && len(tail) == 0 {
			return 0, fmt.Errorf("ingest: no WAL at %s (no active file, sealed segments, or snapshot)", path)
		}
		return len(folded), nil
	}
	if err != nil {
		return 0, fmt.Errorf("ingest: reading WAL: %w", err)
	}
	if err := VerifySegmentBytes(raw, path, false); err != nil {
		return 0, err
	}
	return len(folded), nil
}

// SealedSegmentPaths lists the sealed segment files next to path,
// ascending by sequence — the immutable artifacts a background scrubber
// re-verifies between compactions.
func SealedSegmentPaths(path string) ([]string, error) {
	seqs, err := listSegments(path)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(seqs))
	for i, seq := range seqs {
		out[i] = segName(path, seq)
	}
	return out, nil
}

// VerifySegmentBytes validates one segment image with the record
// scanner recovery uses: magic, record checksums, batch decode. sealed
// refuses a torn tail; otherwise a torn tail — including a header cut
// short by a crash during the active file's creation — is tolerated as
// the active file's crash signature. It is the byte-level check the
// scrubber runs against sealed segments at rest.
func VerifySegmentBytes(raw []byte, path string, sealed bool) error {
	if !sealed && len(raw) < walHeaderLen {
		// No record was ever durable; recovery rewrites the header. Any
		// prefix of the magic is fine, anything else is someone else's
		// file.
		if string(raw) != string(walMagic[:len(raw)]) {
			return fmt.Errorf("%w: %s is not a WAL (bad magic)", ErrWALCorrupt, path)
		}
		return nil
	}
	_, _, err := scanSegment(bytes.NewReader(raw), int64(len(raw)), path, sealed, nil)
	return err
}
