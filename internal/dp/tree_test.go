package dp

import (
	"context"
	"errors"
	"math"
	"math/bits"
	"path/filepath"
	"testing"
)

func TestTreeLevels(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 2: 2, 3: 2, 4: 3, 7: 3, 8: 4, 255: 8, 256: 9, 1 << 20: 21}
	for n, want := range cases {
		if got := TreeLevels(n); got != want {
			t.Errorf("TreeLevels(%d) = %d, want %d", n, got, want)
		}
	}
	tc, err := NewTreeComposer("ds", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for w := 1; w <= 64; w++ {
		levels := tc.NewLevels(w)
		if w&(w-1) == 0 {
			if len(levels) != 1 || levels[0] != bits.Len(uint(w))-1 {
				t.Fatalf("NewLevels(%d) = %v, want [log2 w]", w, levels)
			}
		} else if len(levels) != 0 {
			t.Fatalf("NewLevels(%d) = %v, want none (not a power of two)", w, levels)
		}
	}
}

func TestNewTreeComposerValidation(t *testing.T) {
	for _, bad := range []struct {
		ds  string
		eps float64
	}{{"", 1}, {"ds", 0}, {"ds", -1}, {"ds", math.NaN()}, {"ds", math.Inf(1)}} {
		if _, err := NewTreeComposer(bad.ds, bad.eps); err == nil {
			t.Errorf("NewTreeComposer(%q, %v) accepted", bad.ds, bad.eps)
		}
	}
}

// TestTreeComposerLogarithmicSpend is the acceptance property: charging
// n windows spends exactly ε_node·(⌊log₂ n⌋+1) — the per-window path
// bound — never linearly in n, and the durable spend is bit-identical
// to the composer's closed-form prediction at every step.
func TestTreeComposerLogarithmicSpend(t *testing.T) {
	const n, epsNode = 300, 0.37
	led, err := OpenLedger(filepath.Join(t.TempDir(), "ledger"))
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	tc, err := NewTreeComposer("stream", epsNode)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for w := 1; w <= n; w++ {
		if _, _, err := tc.ChargeWindow(ctx, led, w, 0); err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		got := led.Spent("stream")
		if got != tc.ExpectedSpend(w) {
			t.Fatalf("window %d: spent %.17g, expected fold %.17g", w, got, tc.ExpectedSpend(w))
		}
		if bound := tc.PathEps(w); got > bound+1e-12 {
			t.Fatalf("window %d: spent %.17g exceeds the path bound ε_node·(⌊log₂ %d⌋+1) = %.17g", w, got, w, bound)
		}
	}
	// n = 300 windows fit in ⌊log₂ 300⌋+1 = 9 levels: one entry each,
	// nothing close to the 300 entries naive sequential charging costs.
	if led.Len() != TreeLevels(n) {
		t.Fatalf("ledger holds %d entries for %d windows, want one per level (%d)", led.Len(), n, TreeLevels(n))
	}
}

// TestTreeComposerCrashReplayBitIdentical reopens the ledger mid-stream
// (a crash/replay) and folds it into a checkpoint line as earlier builds'
// compaction did, asserting the spend every continuation observes is
// bit-identical to an uninterrupted run — the equality recovery relies
// on.
func TestTreeComposerCrashReplayBitIdentical(t *testing.T) {
	const n, epsNode = 100, 1.0 / 3.0
	ctx := context.Background()

	run := func(path string, reopenEvery, compactAt int) float64 {
		led, err := OpenLedger(path)
		if err != nil {
			t.Fatal(err)
		}
		tc, err := NewTreeComposer("stream", epsNode)
		if err != nil {
			t.Fatal(err)
		}
		for w := 1; w <= n; w++ {
			if _, _, err := tc.ChargeWindow(ctx, led, w, 0); err != nil {
				t.Fatalf("window %d: %v", w, err)
			}
			if reopenEvery > 0 && w%reopenEvery == 0 {
				led.Close()
				if led, err = OpenLedger(path); err != nil {
					t.Fatalf("reopen after window %d: %v", w, err)
				}
			}
			if compactAt == w {
				seq, spent := led.Len(), led.Spent("stream")
				led.Close()
				writeLedgerCheckpoint(t, path, seq, map[string]float64{"stream": spent})
				if led, err = OpenLedger(path); err != nil {
					t.Fatalf("reopen of the checkpoint at window %d: %v", w, err)
				}
			}
		}
		spent := led.Spent("stream")
		led.Close()
		return spent
	}

	dir := t.TempDir()
	clean := run(filepath.Join(dir, "clean"), 0, 0)
	crashy := run(filepath.Join(dir, "crashy"), 7, 0)
	compacted := run(filepath.Join(dir, "compacted"), 13, 40)
	if math.Float64bits(clean) != math.Float64bits(crashy) {
		t.Fatalf("crash/replay spend %.17g != clean %.17g", crashy, clean)
	}
	if math.Float64bits(clean) != math.Float64bits(compacted) {
		t.Fatalf("compacted spend %.17g != clean %.17g", compacted, clean)
	}
	tc, _ := NewTreeComposer("stream", epsNode)
	if math.Float64bits(clean) != math.Float64bits(tc.ExpectedSpend(n)) {
		t.Fatalf("spend %.17g != closed form %.17g", clean, tc.ExpectedSpend(n))
	}
}

// TestTreeComposerIdempotentRecharge replays ChargeWindow for a window
// whose charge already landed — the crash-after-fsync case — and
// asserts nothing is double-charged.
func TestTreeComposerIdempotentRecharge(t *testing.T) {
	led, err := OpenLedger(filepath.Join(t.TempDir(), "ledger"))
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	tc, err := NewTreeComposer("stream", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for w := 1; w <= 4; w++ {
		if _, _, err := tc.ChargeWindow(ctx, led, w, 0); err != nil {
			t.Fatal(err)
		}
	}
	before := led.Spent("stream")
	// Replay window 4 (a power of two: its charge exists) three times.
	for i := 0; i < 3; i++ {
		levels, eps, err := tc.ChargeWindow(ctx, led, 4, 0)
		if err != nil {
			t.Fatalf("replayed charge %d: %v", i, err)
		}
		if len(levels) != 1 || levels[0] != 2 || eps != 0.5 {
			t.Fatalf("replayed charge reports levels=%v eps=%v, want the original [2]/0.5", levels, eps)
		}
	}
	if got := led.Spent("stream"); got != before {
		t.Fatalf("replayed charges changed spend: %.17g != %.17g", got, before)
	}
}

// TestTreeComposerBudgetRefusalAndForeignWrites pins the two refusal
// paths: an exhausted budget surfaces the typed error before anything
// is written, and a dataset someone else charged is refused outright.
func TestTreeComposerBudgetRefusalAndForeignWrites(t *testing.T) {
	dir := t.TempDir()
	led, err := OpenLedger(filepath.Join(dir, "ledger"))
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	tc, err := NewTreeComposer("stream", 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Budget of 2.5 ε_node: windows 1, 2 charge levels 0, 1; window 4
	// needs a third level and must be refused with the typed error.
	for w := 1; w <= 3; w++ {
		if _, _, err := tc.ChargeWindow(ctx, led, w, 2.5); err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
	}
	_, _, err = tc.ChargeWindow(ctx, led, 4, 2.5)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("window 4 under budget 2.5: err = %v, want ErrBudgetExhausted", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Dataset != "stream" || be.Budget != 2.5 {
		t.Fatalf("refusal carries %+v, want the typed arithmetic", be)
	}
	if got := led.Spent("stream"); got != 2 {
		t.Fatalf("refused charge changed spend to %v", got)
	}
	// Raising the budget resumes exactly where the refusal left off.
	if _, _, err := tc.ChargeWindow(ctx, led, 4, 10); err != nil {
		t.Fatalf("window 4 after raising the budget: %v", err)
	}

	// A foreign entry against the composer's dataset breaks the
	// expected-spend arithmetic and must refuse, not guess.
	if err := led.Charge(ctx, LedgerEntry{Dataset: "stream", EpsSanitize: 0.01}, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tc.ChargeWindow(ctx, led, 5, 0); err == nil {
		t.Fatal("composer accepted a ledger with foreign writes")
	}
}
