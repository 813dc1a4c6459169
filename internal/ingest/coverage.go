package ingest

import (
	"bytes"
	"fmt"
	"os"
)

// CheckWAL audits the log at path strictly read-only — no truncation,
// no restart, no handle kept — under exactly the rules recovery applies
// (walkLog): the snapshot decodes, the log's generation follows it, and
// the log's records parse, with only a torn tail tolerated. Damage or a
// generation the snapshot does not account for is an error wrapping
// ErrWALCorrupt (or ErrSnapshotCorrupt) that names the file refused, as
// is a log an earlier build wrote. A missing log is tolerated beside a
// snapshot: recovery creates it empty.
//
// covered reports a log whose generation the snapshot already folds —
// a compaction stopped between its snapshot and its reset, and the next
// open restarts the log. CheckWAL is safe to run against a live
// ingester because it reads the log before the snapshot: a compaction
// can only move the snapshot forward past what was read, which at worst
// turns a replayable log into a covered one, never into a gap. An
// append racing the read shows as a tolerated torn tail.
func CheckWAL(path string) (covered bool, err error) {
	if err := refuseSegments(path); err != nil {
		return false, err
	}
	raw, err := os.ReadFile(path)
	missing := os.IsNotExist(err)
	if err != nil && !missing {
		return false, fmt.Errorf("ingest: reading WAL: %w", err)
	}
	snap, err := LoadSnapshot(path + ".snap")
	if err != nil {
		return false, err
	}
	var base uint64
	switch {
	case snap != nil:
		base = snap.Upto
	case missing:
		return false, fmt.Errorf("ingest: no WAL at %s (no log or snapshot)", path)
	}
	gen, _, _, err := walkLog(bytes.NewReader(raw), int64(len(raw)), path, base, nil)
	return gen != 0 && gen <= base, err
}
