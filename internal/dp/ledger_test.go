package dp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/journal"
	"repro/internal/resilience"
)

func openTestLedger(t *testing.T, path string) *Ledger {
	t.Helper()
	l, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// TestLedgerRoundTrip: charges persist across close/reopen with exact
// spend arithmetic per dataset.
func TestLedgerRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger")
	ctx := context.Background()

	l := openTestLedger(t, path)
	charges := []LedgerEntry{
		{Dataset: "a", Algorithm: "stpt", EpsPattern: 0.2, EpsSanitize: 0.8},
		{Dataset: "b", EpsSanitize: 1.5, Note: "baseline"},
		{Dataset: "a", Algorithm: "stpt", EpsPattern: 0.1, EpsSanitize: 0.4},
	}
	for _, e := range charges {
		if err := l.Charge(ctx, e, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Spent("a"); got != 1.5 {
		t.Fatalf("spent(a) = %g, want 1.5", got)
	}
	l.Close()

	re := openTestLedger(t, path)
	if re.Len() != 3 {
		t.Fatalf("reopened ledger has %d entries, want 3", re.Len())
	}
	got := re.Entries()
	for i, e := range got {
		if e.Seq != i+1 {
			t.Fatalf("entry %d has seq %d", i, e.Seq)
		}
		if e.Dataset != charges[i].Dataset || e.Eps() != charges[i].Eps() || e.Note != charges[i].Note {
			t.Fatalf("entry %d = %+v, want %+v", i, e, charges[i])
		}
	}
	if got := re.Spent("a"); got != 1.5 {
		t.Fatalf("reopened spent(a) = %g, want 1.5", got)
	}
	if got := re.Spent("b"); got != 1.5 {
		t.Fatalf("reopened spent(b) = %g, want 1.5", got)
	}
	if got := re.Spent("never-seen"); got != 0 {
		t.Fatalf("spent on unknown dataset = %g", got)
	}
}

// TestLedgerBudgetRefusal: the gate refuses with the typed error and a
// refused charge leaves no trace — durably.
func TestLedgerBudgetRefusal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger")
	ctx := context.Background()
	l := openTestLedger(t, path)

	if err := l.Charge(ctx, LedgerEntry{Dataset: "d", EpsPattern: 0.5, EpsSanitize: 0.5}, 1.5); err != nil {
		t.Fatal(err)
	}
	err := l.Charge(ctx, LedgerEntry{Dataset: "d", EpsSanitize: 1}, 1.5)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err %v is not a *BudgetError", err)
	}
	if be.Dataset != "d" || be.Requested != 1 || be.Spent != 1 || be.Budget != 1.5 {
		t.Fatalf("budget error detail %+v", be)
	}
	for _, frag := range []string{"d", "budget"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not mention %q", err, frag)
		}
	}
	// Refusal recorded nothing.
	if l.Len() != 1 {
		t.Fatalf("refused charge appended an entry: len=%d", l.Len())
	}
	// Different dataset still has headroom.
	if err := l.Charge(ctx, LedgerEntry{Dataset: "other", EpsSanitize: 1}, 1.5); err != nil {
		t.Fatal(err)
	}
	// An exact fit is allowed (tolerance guards float dust, not real overspend).
	if err := l.Charge(ctx, LedgerEntry{Dataset: "d", EpsSanitize: 0.5}, 1.5); err != nil {
		t.Fatalf("exact-fit charge refused: %v", err)
	}
	l.Close()

	re := openTestLedger(t, path)
	if re.Len() != 3 || re.Spent("d") != 1.5 {
		t.Fatalf("reopened len=%d spent(d)=%g, want 3 and 1.5", re.Len(), re.Spent("d"))
	}
}

// TestLedgerFloatAccumulation: many small charges that sum to the budget
// must not trip the gate on accumulated float error.
func TestLedgerFloatAccumulation(t *testing.T) {
	l := openTestLedger(t, filepath.Join(t.TempDir(), "ledger"))
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if err := l.Charge(ctx, LedgerEntry{Dataset: "f", EpsSanitize: 0.1}, 1.0); err != nil {
			t.Fatalf("charge %d: %v", i, err)
		}
	}
	if err := l.Charge(ctx, LedgerEntry{Dataset: "f", EpsSanitize: 0.1}, 1.0); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("11th charge: %v, want refusal", err)
	}
}

// TestLedgerRejectsInvalidEntries: negative or non-finite spends and
// anonymous datasets never reach the file.
func TestLedgerRejectsInvalidEntries(t *testing.T) {
	l := openTestLedger(t, filepath.Join(t.TempDir(), "ledger"))
	ctx := context.Background()
	for name, e := range map[string]LedgerEntry{
		"no-dataset":   {EpsSanitize: 1},
		"negative":     {Dataset: "d", EpsPattern: -0.1},
		"nan":          {Dataset: "d", EpsSanitize: math.NaN()},
		"inf-combined": {Dataset: "d", EpsPattern: math.Inf(1)},
	} {
		if err := l.Charge(ctx, e, 0); err == nil {
			t.Errorf("%s: charge accepted", name)
		} else if errors.Is(err, ErrBudgetExhausted) {
			t.Errorf("%s: invalid entry misreported as budget refusal", name)
		}
	}
	if l.Len() != 0 {
		t.Fatalf("invalid charges recorded: len=%d", l.Len())
	}
}

// TestLedgerTornTailDropped: truncating the file at every byte offset
// inside the final line must reopen cleanly with exactly the complete
// entries, and the ledger must accept new charges.
func TestLedgerTornTailDropped(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full")
	l := openTestLedger(t, full)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := l.Charge(ctx, LedgerEntry{Dataset: "d", EpsSanitize: 1}, 0); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	if len(lines) != 4 || lines[3] != "" {
		t.Fatalf("unexpected file shape: %q", lines)
	}
	secondEnd := len(lines[0]) + len(lines[1])

	for cut := secondEnd; cut < len(raw); cut++ {
		path := filepath.Join(dir, fmt.Sprintf("torn%d", cut))
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := OpenLedger(path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		const want = 2
		if re.Len() != want {
			re.Close()
			t.Fatalf("cut %d: recovered %d entries, want %d", cut, re.Len(), want)
		}
		if err := re.Charge(ctx, LedgerEntry{Dataset: "d", EpsSanitize: 2}, 0); err != nil {
			re.Close()
			t.Fatalf("cut %d: charge after recovery: %v", cut, err)
		}
		if got := re.Spent("d"); got != 4 {
			re.Close()
			t.Fatalf("cut %d: spent %g after recovery charge, want 4", cut, got)
		}
		re.Close()
		// And the recovered-and-extended file reopens clean.
		re2, err := OpenLedger(path)
		if err != nil {
			t.Fatalf("cut %d: second reopen: %v", cut, err)
		}
		if re2.Len() != 3 {
			t.Fatalf("cut %d: second reopen has %d entries", cut, re2.Len())
		}
		re2.Close()
	}
}

// TestLedgerInteriorCorruptionRefused: damage before the final line —
// which an fsynced append sequence cannot produce — refuses to open
// with an error naming the line.
func TestLedgerInteriorCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full")
	l := openTestLedger(t, full)
	for i := 0; i < 3; i++ {
		if err := l.Charge(context.Background(), LedgerEntry{Dataset: "d", EpsSanitize: 1}, 0); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string]func(b []byte) []byte{
		"bitflip-first-line": func(b []byte) []byte {
			b[11] ^= 0x01 // inside the first line's JSON region or checksum
			return b
		},
		"missing-separator": func(b []byte) []byte {
			return []byte("deadbeef\n" + string(b))
		},
		"bad-hex": func(b []byte) []byte {
			return []byte("zzzzzzzz {}\n" + string(b))
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, mutate(append([]byte(nil), raw...)), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := OpenLedger(path); err == nil {
				t.Fatal("corrupt ledger opened")
			} else if !strings.Contains(err.Error(), "line") {
				t.Fatalf("error %q does not locate the damage", err)
			}
		})
	}
}

// TestLedgerSeqMismatchRefused: a ledger whose sequence numbers skip —
// an entry deleted or the file spliced — must refuse to open even though
// every line checksums.
func TestLedgerSeqMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full")
	l := openTestLedger(t, full)
	for i := 0; i < 3; i++ {
		if err := l.Charge(context.Background(), LedgerEntry{Dataset: "d", EpsSanitize: 1}, 0); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	// Drop the middle entry: seqs go 1, 3.
	spliced := filepath.Join(dir, "spliced")
	if err := os.WriteFile(spliced, []byte(lines[0]+lines[2]), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLedger(spliced); err == nil || !strings.Contains(err.Error(), "sequence") {
		t.Fatalf("spliced ledger: err = %v, want sequence error", err)
	}
}

// TestLedgerFsyncFailurePoisons: an injected fsync failure fails the
// charge and poisons the handle; a reopened ledger recovers a consistent
// prefix — the failed charge may or may not be on disk, but whatever is
// there checksums and the spend gate works off the durable truth.
func TestLedgerFsyncFailurePoisons(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger")
	l := openTestLedger(t, path)

	inj := resilience.NewInjector()
	inj.On(resilience.FaultLedgerAppend, func(ctx context.Context, payload any) error {
		if payload.(int) == 2 {
			return errors.New("EIO: injected fsync failure")
		}
		return nil
	})
	ctx := resilience.WithInjector(context.Background(), inj)

	if err := l.Charge(ctx, LedgerEntry{Dataset: "d", EpsSanitize: 1}, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Charge(ctx, LedgerEntry{Dataset: "d", EpsSanitize: 1}, 0); err == nil {
		t.Fatal("charge survived an fsync failure")
	}
	// Poisoned: even a valid charge is refused now.
	err := l.Charge(context.Background(), LedgerEntry{Dataset: "d", EpsSanitize: 1}, 0)
	if err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("charge on poisoned ledger: %v", err)
	}
	// The in-memory view never counted the failed charge.
	if got := l.Spent("d"); got != 1 {
		t.Fatalf("spent = %g after failed charge, want 1", got)
	}
	l.Close()

	re := openTestLedger(t, path)
	// The failed entry's bytes were written before the injected fsync
	// error, so recovery may surface 1 or 2 entries; both checksum.
	if n := re.Len(); n != 1 && n != 2 {
		t.Fatalf("recovered %d entries, want 1 or 2", n)
	}
	if spent := re.Spent("d"); spent != float64(re.Len()) {
		t.Fatalf("recovered spend %g does not match %d entries", spent, re.Len())
	}
}

// TestLedgerUnlimitedBudget: budget <= 0 records spends for audit but
// never refuses.
func TestLedgerUnlimitedBudget(t *testing.T) {
	l := openTestLedger(t, filepath.Join(t.TempDir(), "ledger"))
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if err := l.Charge(ctx, LedgerEntry{Dataset: "d", EpsSanitize: 100}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if l.Spent("d") != 500 {
		t.Fatalf("spent = %g", l.Spent("d"))
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

// TestLedgerOneWriter replays a continual-release daemon and a one-shot
// release sharing one ledger file. Two handles would each append at
// their own offset, so the daemon's next charge overwrites the release's
// line and the file forgets the ε=30 spent on "ca". The second open is
// refused instead, naming the file and changing no byte; once the
// daemon's handle is closed, the budget holds across releases.
func TestLedgerOneWriter(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "budget.ledger")
	stream := LedgerEntry{Dataset: "stream", Algorithm: "tree", EpsSanitize: 0.5}
	ca := LedgerEntry{Dataset: "ca", Algorithm: "identity", EpsSanitize: 30}

	daemon := openTestLedger(t, path)
	if err := daemon.Charge(ctx, stream, 0); err != nil {
		t.Fatal(err)
	}
	held, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	run, err := OpenLedger(path)
	if err == nil {
		cerr := run.Charge(ctx, ca, 30)
		run.Close()
		derr := daemon.Charge(ctx, stream, 0)
		raw, _ := os.ReadFile(path)
		sc, serr := ScanLedger(path, raw)
		if serr != nil {
			t.Fatalf("a second handle opened the held ledger (charges: %v, %v); the file no longer scans: %v", cerr, derr, serr)
		}
		t.Fatalf("a second handle opened the held ledger (charges: %v, %v); the file now reports Spent(ca) = %g after ε=30 was charged",
			cerr, derr, sc.Spent["ca"])
	}
	if !errors.Is(err, journal.ErrLocked) || !strings.Contains(err.Error(), path) {
		t.Fatalf("second open of a held ledger: %v, want journal.ErrLocked naming %s", err, path)
	}
	if raw, err := os.ReadFile(path); err != nil || string(raw) != string(held) {
		t.Fatalf("the refused open changed the ledger (%v):\n%s", err, raw)
	}
	if err := daemon.Charge(ctx, stream, 0); err != nil {
		t.Fatal(err)
	}
	daemon.Close()

	for i, want := range []error{nil, ErrBudgetExhausted} {
		run, err := OpenLedger(path)
		if err != nil {
			t.Fatalf("release %d: open after the daemon closed: %v", i+1, err)
		}
		err = run.Charge(ctx, ca, 30)
		run.Close()
		if !errors.Is(err, want) {
			t.Fatalf("release %d of ε=30 against a budget of 30: %v, want %v", i+1, err, want)
		}
	}
}
