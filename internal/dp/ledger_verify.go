package dp

import (
	"errors"
	"fmt"
	"os"

	"repro/internal/journal"
)

// LedgerFault reports the first verification failure found in a ledger
// file: which line, which expected sequence (0 when the damage is not an
// entry-sequence problem), the byte offset the bad line starts at, and
// why it was refused. It is the typed error ScanLedger and the
// cross-artifact fsck surface.
type LedgerFault struct {
	Path   string
	Line   int   // 1-based line number of the bad line
	Seq    int   // sequence expected at that line, 0 if not applicable
	Offset int64 // byte offset of the bad line's first byte
	Reason string
}

func (e *LedgerFault) Error() string {
	if e.Seq > 0 {
		return fmt.Sprintf("dp: ledger %s line %d (seq %d, byte offset %d): %s", e.Path, e.Line, e.Seq, e.Offset, e.Reason)
	}
	return fmt.Sprintf("dp: ledger %s line %d (byte offset %d): %s", e.Path, e.Line, e.Offset, e.Reason)
}

// LedgerScan is the result of a read-only walk over ledger bytes: the
// same state OpenLedger would recover, computed without touching the
// file — no truncation, no handle, no side effects. Fsck and the
// background scrubber both verify through it.
type LedgerScan struct {
	// Base is the sequence folded into the leading checkpoint, 0 without
	// one.
	Base int
	// Entries are the live (post-checkpoint) entries in append order.
	Entries []LedgerEntry
	// Spent is the per-dataset ε fold — checkpoint value plus live
	// entries, in exactly Ledger.spent's left-to-right order, so a verify
	// agrees bit-for-bit with the running ledger's arithmetic.
	Spent map[string]float64
	// Durable is the offset after the last valid line.
	Durable int64
	// Torn reports trailing bytes past Durable — the tolerated torn-tail
	// case (a crash mid-append) that OpenLedger would truncate away.
	Torn bool
}

// ScanLedger walks raw ledger bytes read-only, applying exactly the
// recovery rules OpenLedger enforces: a leading optional checkpoint,
// checksummed gapless-sequence entries, and a tolerated torn tail (a
// final line with no newline, or a complete-looking final line whose
// checksum fails with nothing after it). Interior damage returns a
// *LedgerFault naming the first bad line. path is used only for error
// messages.
func ScanLedger(path string, raw []byte) (*LedgerScan, error) {
	sc := &LedgerScan{Spent: map[string]float64{}}
	durable, err := journal.Scan(raw, decodeLedgerLine, func(line int, rec ledgerLine) error {
		if ck := rec.Checkpoint; ck != nil {
			if line != 1 {
				return &LedgerFault{Reason: "checkpoint after entries — the file was spliced"}
			}
			sc.Base = ck.Seq
			for ds, eps := range ck.Spent {
				sc.Spent[ds] = eps
			}
			return nil
		}
		if want := sc.Base + len(sc.Entries) + 1; rec.Seq != want {
			return &LedgerFault{Seq: want, Reason: fmt.Sprintf("sequence %d, want %d (entries missing or reordered)", rec.Seq, want)}
		}
		sc.Entries = append(sc.Entries, rec.LedgerEntry)
		sc.Spent[rec.Dataset] += rec.Eps()
		return nil
	})
	var f *journal.Fault
	if errors.As(err, &f) {
		lf, ok := f.Err.(*LedgerFault)
		if !ok {
			// Past line 1 a line that fails to decode can only be an entry,
			// so the sequence it should have carried is known.
			lf = &LedgerFault{Reason: f.Err.Error()}
			if f.Line > 1 {
				lf.Seq = sc.Base + len(sc.Entries) + 1
			}
		}
		lf.Path, lf.Line, lf.Offset = path, f.Line, f.Offset
		return nil, lf
	}
	sc.Durable = durable
	sc.Torn = durable < int64(len(raw))
	return sc, nil
}

// VerifyLedgerFile reads and scans the ledger at path without opening it
// for writing — safe to run against a live daemon's ledger, whose only
// concurrent mutation is an append (at worst observed as a tolerated
// torn tail).
func VerifyLedgerFile(path string) (*LedgerScan, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("dp: reading ledger: %w", err)
	}
	return ScanLedger(path, raw)
}
