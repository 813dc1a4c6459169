package dp

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/resilience"
)

// chargeN appends n entries for dataset with awkward decimal epsilons —
// values whose float sums expose any change in accumulation order.
func chargeN(t *testing.T, l *Ledger, dataset string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		e := LedgerEntry{Dataset: dataset, EpsPattern: 0.1, EpsSanitize: 0.03}
		if err := l.Charge(context.Background(), e, 0); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLedgerCompactPreservesSpendingExactly: compaction folds entries
// into a checkpoint whose per-dataset spend is bit-identical to the
// uncompacted fold, across reopen and further charges.
func TestLedgerCompactPreservesSpendingExactly(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ledger")
	l, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	chargeN(t, l, "a", 7)
	chargeN(t, l, "b", 3)
	chargeN(t, l, "a", 2)
	wantA, wantB := l.Spent("a"), l.Spent("b")

	if err := l.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := l.Spent("a"); got != wantA {
		t.Fatalf("Spent(a) after compact = %v, want exactly %v", got, wantA)
	}
	if got := l.Spent("b"); got != wantB {
		t.Fatalf("Spent(b) after compact = %v, want exactly %v", got, wantB)
	}
	if l.Len() != 12 || l.Compacted() != 12 || len(l.Entries()) != 0 {
		t.Fatalf("len=%d compacted=%d live=%d", l.Len(), l.Compacted(), len(l.Entries()))
	}

	// Further charges continue the sequence past the checkpoint.
	chargeN(t, l, "a", 1)
	if es := l.Entries(); len(es) != 1 || es[0].Seq != 13 {
		t.Fatalf("post-compact entry: %+v", es)
	}
	wantA = l.Spent("a")
	l.Close()

	re, err := OpenLedger(path)
	if err != nil {
		t.Fatalf("reopen after compact: %v", err)
	}
	defer re.Close()
	if got := re.Spent("a"); got != wantA {
		t.Fatalf("reopened Spent(a) = %v, want exactly %v", got, wantA)
	}
	if got := re.Spent("b"); got != wantB {
		t.Fatalf("reopened Spent(b) = %v, want exactly %v", got, wantB)
	}
	if re.Len() != 13 {
		t.Fatalf("reopened Len = %d, want 13", re.Len())
	}

	// A second compaction folds the checkpoint plus the live tail.
	if err := re.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := re.Spent("a"); got != wantA {
		t.Fatalf("Spent(a) after second compact = %v, want exactly %v", got, wantA)
	}
}

// TestLedgerCompactBudgetGateUnchanged: a budget decision made against
// the compacted ledger matches the one the uncompacted ledger would
// have made, including the refusal arithmetic.
func TestLedgerCompactBudgetGateUnchanged(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ledger")
	l, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	chargeN(t, l, "d", 5) // spent 0.65
	if err := l.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	// 0.65 spent of a 0.70 budget: 0.04 fits, 0.10 must be refused.
	if err := l.Charge(context.Background(), LedgerEntry{Dataset: "d", EpsSanitize: 0.04}, 0.70); err != nil {
		t.Fatalf("in-budget charge refused after compact: %v", err)
	}
	err = l.Charge(context.Background(), LedgerEntry{Dataset: "d", EpsSanitize: 0.10}, 0.70)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("over-budget charge after compact: %v", err)
	}
}

// TestLedgerCompactCrashSafe: the checkpoint commit failing at the
// rename leaves the original file untouched and the ledger usable; a
// reopen sees the identical spending either way.
func TestLedgerCompactCrashSafe(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ledger")
	l, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	chargeN(t, l, "d", 4)
	want := l.Spent("d")

	inj := resilience.NewInjector()
	inj.On(resilience.FaultAtomicRename, func(ctx context.Context, payload any) error {
		return errors.New("injected crash before rename")
	})
	if err := l.Compact(resilience.WithInjector(context.Background(), inj)); err == nil {
		t.Fatal("compaction survived an injected rename failure")
	}
	if l.Compacted() != 0 || l.Len() != 4 {
		t.Fatalf("failed compaction mutated state: compacted=%d len=%d", l.Compacted(), l.Len())
	}
	// Still chargeable, and the durable file still parses entry-by-entry.
	chargeN(t, l, "d", 1)
	l.Close()
	re, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Spent("d"); got != want+0.13 {
		t.Fatalf("reopened Spent = %v, want %v", got, want+0.13)
	}
}

// TestLedgerCompactDirSyncEIOPoisons: a checkpoint whose rename landed
// but whose directory fsync failed leaves the live handle on the
// unlinked pre-checkpoint file. Charges appended there would be gone
// after a restart, which reads only the checkpoint, so the ledger must
// refuse them; the reopened ledger keeps every committed spend.
func TestLedgerCompactDirSyncEIOPoisons(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ledger")
	l, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	chargeN(t, l, "d", 3)
	want := l.Spent("d")

	inj := resilience.NewInjector()
	inj.On(resilience.FaultSyncEIO, func(ctx context.Context, payload any) error {
		if payload.(string) == dir {
			return errors.New("EIO: injected")
		}
		return nil
	})
	err = l.Compact(resilience.WithInjector(context.Background(), inj))
	if !errors.Is(err, ErrLedgerPoisoned) || !errors.Is(err, resilience.ErrRenameNotDurable) {
		t.Fatalf("compaction with a failed directory fsync: %v, want ErrLedgerPoisoned and ErrRenameNotDurable", err)
	}
	err = l.Charge(context.Background(), LedgerEntry{Dataset: "d", EpsSanitize: 0.5}, 0)
	if !errors.Is(err, ErrLedgerPoisoned) {
		t.Fatalf("charge after a non-durable checkpoint: %v, want ErrLedgerPoisoned", err)
	}
	if got := l.Spent("d"); got != want {
		t.Fatalf("in-process Spent = %v, want %v", got, want)
	}
	l.Close()

	re, err := OpenLedger(path)
	if err != nil {
		t.Fatalf("reopen after a non-durable checkpoint: %v", err)
	}
	defer re.Close()
	if got := re.Spent("d"); got != want {
		t.Fatalf("reopened Spent = %v, want exactly %v", got, want)
	}
}

// TestLedgerChargeFsyncPoisoningSeam: an fsync failing through the
// filesystem seam must never count the entry as spent in-process, and
// must poison the ledger so no later charge can sneak past an unknowable
// disk state. On reopen the entry may legitimately reappear (the bytes
// were written; only durability was unconfirmed) — over-counting is the
// conservative direction for a privacy budget.
func TestLedgerChargeFsyncPoisoningSeam(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ledger")
	l, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	chargeN(t, l, "d", 2)
	before := l.Spent("d")

	inj := resilience.NewInjector()
	inj.On(resilience.FaultSyncEIO, func(ctx context.Context, payload any) error {
		return errors.New("EIO: injected")
	})
	err = l.Charge(resilience.WithInjector(context.Background(), inj),
		LedgerEntry{Dataset: "d", EpsSanitize: 1}, 0)
	if !errors.Is(err, ErrLedgerPoisoned) {
		t.Fatalf("charge with failing fsync: %v, want ErrLedgerPoisoned", err)
	}
	if got := l.Spent("d"); got != before {
		t.Fatalf("failed charge changed in-process spend: %v -> %v", before, got)
	}
	// Every further charge is refused: no silent spending through a
	// handle whose durability is unknowable.
	err = l.Charge(context.Background(), LedgerEntry{Dataset: "d", EpsSanitize: 0.01}, 0)
	if !errors.Is(err, ErrLedgerPoisoned) {
		t.Fatalf("charge on a poisoned ledger: %v", err)
	}
	if err := l.Compact(context.Background()); !errors.Is(err, ErrLedgerPoisoned) {
		t.Fatalf("compact on a poisoned ledger: %v", err)
	}
	l.Close()

	re, err := OpenLedger(path)
	if err != nil {
		t.Fatalf("reopen after poisoning: %v", err)
	}
	defer re.Close()
	if got := re.Spent("d"); got < before {
		t.Fatalf("reopened spend %v lost committed charges (%v)", got, before)
	}
}

// TestLedgerChargeENOSPCSelfHeals: a failed plain write (disk full) is
// not poisoning — the torn line is truncated away, the charge simply
// did not happen, and once space returns the same charge lands cleanly
// with no gap or duplicate in the sequence.
func TestLedgerChargeENOSPCSelfHeals(t *testing.T) {
	for _, fault := range []resilience.Fault{resilience.FaultWriteENOSPC, resilience.FaultShortWrite} {
		t.Run(string(fault), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "ledger")
			l, err := OpenLedger(path)
			if err != nil {
				t.Fatal(err)
			}
			chargeN(t, l, "d", 2)
			before := l.Spent("d")

			inj := resilience.NewInjector()
			inj.On(fault, func(ctx context.Context, payload any) error {
				return fmt.Errorf("injected: %w", syscall.ENOSPC)
			})
			err = l.Charge(resilience.WithInjector(context.Background(), inj),
				LedgerEntry{Dataset: "d", EpsSanitize: 1}, 0)
			if err == nil || !resilience.IsDiskFull(err) {
				t.Fatalf("charge with a full disk: %v, want disk-full", err)
			}
			if errors.Is(err, ErrLedgerPoisoned) {
				t.Fatal("a healed ENOSPC must not poison the ledger")
			}
			if got := l.Spent("d"); got != before {
				t.Fatalf("failed charge changed spend: %v -> %v", before, got)
			}

			// Space returns: the charge lands; the file has no torn line.
			if err := l.Charge(context.Background(), LedgerEntry{Dataset: "d", EpsSanitize: 0.5}, 0); err != nil {
				t.Fatalf("charge after space returned: %v", err)
			}
			l.Close()
			re, err := OpenLedger(path)
			if err != nil {
				t.Fatalf("reopen after heal: %v", err)
			}
			defer re.Close()
			if re.Len() != 3 {
				t.Fatalf("reopened Len = %d, want 3", re.Len())
			}
			if got := re.Spent("d"); got != before+0.5 {
				t.Fatalf("reopened spend = %v, want %v", got, before+0.5)
			}
			raw, _ := os.ReadFile(path)
			if n := strings.Count(string(raw), "\n"); n != 3 {
				t.Fatalf("ledger has %d lines, want 3 (torn tail must be healed away)", n)
			}
		})
	}
}
