package dp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/journal"
	"repro/internal/resilience"
)

// Ledger is the crash-safe, append-only record of privacy spending
// across process lifetimes. The in-process Accountant verifies one
// run's composition structure; the ledger is what survives the run —
// every publication appends one durable entry, and the gate that
// refuses an over-budget release reads the sum of everything any prior
// process charged against the same dataset.
//
// On-disk format: one entry per line in the internal/journal line
// format, `<crc32-hex> <json>\n`, with its torn-tail, heal and poison
// rules. A torn final line is safely ignorable: Charge fsyncs the entry
// *before* the caller publishes, so a torn entry proves the matching
// release never made it out. The converse crash — entry durable,
// release lost — over-counts spending, which is the conservative
// direction for a privacy budget.
//
// Ledgers written by earlier builds may start with a checkpoint line,
// which their compaction wrote to fold settled entries. It records, per
// dataset, the exact running spend — the same left-to-right fold Spent
// reports — so budget arithmetic over it is bit-identical to summing
// the original entries. A checkpoint is only legal as the first line.
// Nothing writes one any more, but OpenLedger and ScanLedger still read
// it, so such ledgers keep opening.
type Ledger struct {
	mu      sync.Mutex
	h       *journal.Appender
	base    int // entries folded into the checkpoint line
	entries []LedgerEntry
	// spent is the per-dataset ε: the checkpoint's fold continued left to
	// right over the live entries.
	spent map[string]float64
}

// ledgerCheckpoint is the JSON payload of a checkpoint line, wrapped as
// {"checkpoint": {...}} so it can never be confused with an entry
// (entries have no "checkpoint" key).
type ledgerCheckpoint struct {
	// Seq is the number of entries folded in; live entries continue the
	// sequence at Seq+1.
	Seq int `json:"seq"`
	// Spent is the per-dataset folded ε, in Ledger.spent's fold order.
	Spent map[string]float64 `json:"spent"`
}

// ledgerLine is the union shape of one ledger line's JSON.
type ledgerLine struct {
	Checkpoint *ledgerCheckpoint `json:"checkpoint,omitempty"`
	LedgerEntry
}

// LedgerEntry is one publication's recorded spend. EpsPattern and
// EpsSanitize mirror the paper's two-phase budget split (Eq. 7);
// baseline releases record their whole ε as EpsSanitize.
type LedgerEntry struct {
	Seq         int     `json:"seq"`
	Dataset     string  `json:"dataset"`
	Algorithm   string  `json:"alg,omitempty"`
	EpsPattern  float64 `json:"eps_pattern"`
	EpsSanitize float64 `json:"eps_sanitize"`
	Note        string  `json:"note,omitempty"`
}

// Eps returns the entry's total privacy loss, ε_pattern + ε_sanitize.
func (e LedgerEntry) Eps() float64 { return e.EpsPattern + e.EpsSanitize }

// ErrLedgerPoisoned marks a ledger whose last fsync failed: the durable
// state is unknowable through the live handle, so every further charge
// is refused until a restart re-reads the file. No ε is ever counted as
// spent unless its fsync returned success — the poisoned state is what
// prevents silent spending.
var ErrLedgerPoisoned = errors.New("dp: ledger poisoned by a failed fsync")

// ErrBudgetExhausted is the sentinel every budget refusal wraps;
// callers gate on errors.Is(err, ErrBudgetExhausted) and exit non-zero
// without publishing.
var ErrBudgetExhausted = errors.New("dp: lifetime privacy budget exhausted")

// BudgetError reports the exact arithmetic of a refused publication.
type BudgetError struct {
	Dataset   string
	Requested float64 // ε the refused publication asked for
	Spent     float64 // ε already durably charged to the dataset
	Budget    float64 // configured lifetime budget
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("dp: publishing %q would spend ε=%.6g on top of ε=%.6g already spent, exceeding the lifetime budget ε=%.6g",
		e.Dataset, e.Requested, e.Spent, e.Budget)
}

// Is makes errors.Is(err, ErrBudgetExhausted) hold for *BudgetError.
func (e *BudgetError) Is(target error) bool { return target == ErrBudgetExhausted }

// OpenLedger loads (or creates) the ledger at path, verifying every
// entry's checksum and sequence. A torn final line is dropped; any
// other damage is a *LedgerFault naming the line.
func OpenLedger(path string) (*Ledger, error) {
	l := &Ledger{}
	h, err := journal.Open(path, ErrLedgerPoisoned, func(raw []byte) (int64, error) {
		sc, err := ScanLedger(path, raw)
		if err != nil {
			return 0, err
		}
		l.base, l.entries, l.spent = sc.Base, sc.Entries, sc.Spent
		return sc.Durable, nil
	})
	if err != nil {
		return nil, err
	}
	l.h = h
	return l, nil
}

// decodeLedgerLine verifies one line and decodes either an entry or a
// checkpoint, refusing spends no Charge could have written.
func decodeLedgerLine(line []byte) (ledgerLine, error) {
	var rec ledgerLine
	if err := journal.Decode(line, &rec); err != nil {
		return rec, err
	}
	if ck := rec.Checkpoint; ck != nil {
		if ck.Seq < 0 {
			return rec, fmt.Errorf("checkpoint folds a negative sequence %d", ck.Seq)
		}
		for ds, eps := range ck.Spent {
			if eps < 0 || !isFinite(eps) {
				return rec, fmt.Errorf("checkpoint carries invalid spend ε=%v for %q", eps, ds)
			}
		}
		return rec, nil
	}
	if rec.EpsPattern < 0 || rec.EpsSanitize < 0 || !isFinite(rec.Eps()) {
		return rec, fmt.Errorf("entry carries invalid spend ε_pattern=%v ε_sanitize=%v", rec.EpsPattern, rec.EpsSanitize)
	}
	return rec, nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Spent returns the ε already charged to dataset across all entries —
// sequential composition (Theorem 1): repeated releases over the same
// data add.
func (l *Ledger) Spent(dataset string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.spent[dataset]
}

// Entries returns a copy of the ledger's entries after any checkpoint
// line, in append order. Entries folded into a checkpoint are gone as
// individual records; their spending survives in Spent.
func (l *Ledger) Entries() []LedgerEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]LedgerEntry, len(l.entries))
	copy(out, l.entries)
	return out
}

// Len returns the number of committed entries across the ledger's
// lifetime, including entries folded into a checkpoint.
func (l *Ledger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base + len(l.entries)
}

// Charge durably records e's spend against its dataset, refusing with a
// *BudgetError (wrapping ErrBudgetExhausted) if the dataset's lifetime
// spending would exceed budget. budget <= 0 means unlimited: the entry
// is recorded for audit but never refused. The entry's Seq is assigned
// by the ledger. Charge returns only after fsync — callers publish the
// release strictly after a nil return, which is what makes a torn tail
// safe to drop on recovery. A failed fsync poisons the ledger
// (ErrLedgerPoisoned) without counting the entry: a spend the disk may
// not remember must refuse the publication.
func (l *Ledger) Charge(ctx context.Context, e LedgerEntry, budget float64) error {
	if e.Dataset == "" {
		return errors.New("dp: ledger entry needs a dataset name")
	}
	if e.EpsPattern < 0 || e.EpsSanitize < 0 || !isFinite(e.Eps()) {
		return fmt.Errorf("dp: invalid spend ε_pattern=%v ε_sanitize=%v", e.EpsPattern, e.EpsSanitize)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.h.Err(); err != nil {
		return err
	}
	const tol = 1e-9
	if spent := l.spent[e.Dataset]; budget > 0 && e.Eps() > budget-spent+tol {
		return &BudgetError{Dataset: e.Dataset, Requested: e.Eps(), Spent: spent, Budget: budget}
	}
	e.Seq = l.base + len(l.entries) + 1
	line, err := journal.Encode(e)
	if err != nil {
		return fmt.Errorf("dp: encoding ledger entry: %w", err)
	}
	// FaultLedgerAppend fires with the entry written but not yet durable:
	// a crash there leaves a (possibly torn) uncommitted line and no
	// published release.
	if err := l.h.Append(ctx, line, resilience.FaultLedgerAppend, e.Seq); err != nil {
		return fmt.Errorf("dp: appending ledger entry: %w", err)
	}
	l.entries = append(l.entries, e)
	l.spent[e.Dataset] += e.Eps()
	return nil
}

// Close releases the file handle; all committed entries are already
// durable.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.h.Close()
}
