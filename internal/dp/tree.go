package dp

import (
	"context"
	"fmt"
	"math"
	"math/bits"
)

// TreeComposer implements binary-tree (hierarchical) continual-release
// budget accounting on top of the durable Ledger, the composition
// playbook of Farokhi's almost-periodic continual linear queries and
// OptStream: publishing a stream of per-window releases must not
// exhaust ε linearly in the number of windows.
//
// The mechanism's tree: windows 1..n are the leaves of a growing binary
// tree whose level-L nodes cover the dyadic spans ((k-1)·2^L, k·2^L].
// Every published window release is the level-0 node over its own span;
// higher levels exist so range aggregates over many windows can be
// answered from O(log n) noisy nodes instead of n. Each time interval
// lies in exactly ONE node per level, so nodes at the same level
// compose in parallel (Theorem 5 of the paper: disjoint data) and each
// level costs ε_node ONCE no matter how many of its nodes are released.
// Across levels the same interval is reused, so levels compose
// sequentially (Theorem 1). After n windows the tree has
// ⌊log₂ n⌋ + 1 levels, so the total user-level spend is
// ε_node · (⌊log₂ n⌋ + 1) — logarithmic in the stream length.
//
// The ledger translation: level L is first opened by window 2^L (the
// first window whose root path reaches that level), so the composer
// appends exactly one ledger entry per power-of-two window and none
// otherwise. That makes the durable spend a pure function of the number
// of charged windows — ExpectedSpend — which is what recovery uses to
// decide, exactly and idempotently, whether a crash landed before or
// after a window's charge: double-charging is detectable as
// Spent > ExpectedSpend(w) and can therefore never happen silently.
//
// The composer owns its dataset name exclusively: nothing else may
// charge entries against it, or the expected-spend arithmetic (and with
// it crash recovery) refuses.
type TreeComposer struct {
	// Dataset is the ledger dataset name the composer charges. It must
	// not be shared with any other writer.
	Dataset string
	// EpsNode is ε_node, the per-node (= per-level) budget. Every
	// window's own release is sanitised with this ε.
	EpsNode float64
}

// NewTreeComposer validates and builds a composer.
func NewTreeComposer(dataset string, epsNode float64) (*TreeComposer, error) {
	if dataset == "" {
		return nil, fmt.Errorf("dp: tree composer needs a dataset name")
	}
	if epsNode <= 0 || math.IsNaN(epsNode) || math.IsInf(epsNode, 0) {
		return nil, fmt.Errorf("dp: invalid per-node budget ε=%v", epsNode)
	}
	return &TreeComposer{Dataset: dataset, EpsNode: epsNode}, nil
}

// TreeLevels returns the number of tree levels in use after n published
// windows: ⌊log₂ n⌋ + 1, and 0 before the first window.
func TreeLevels(n int) int {
	if n <= 0 {
		return 0
	}
	return bits.Len(uint(n))
}

// NewLevels returns the tree levels window w (1-based) opens — the
// levels its root path reaches that no earlier window's did. Exactly
// one level is opened when w is a power of two (level log₂ w), none
// otherwise.
func (tc *TreeComposer) NewLevels(w int) []int {
	if w >= 1 && w&(w-1) == 0 {
		return []int{bits.Len(uint(w)) - 1}
	}
	return nil
}

// PathEps returns the privacy loss along window w's root path in a tree
// of n ≥ w windows: one ε_node per level. This is the per-window bound
// the property tests pin: ε_node · (⌊log₂ n⌋ + 1).
func (tc *TreeComposer) PathEps(n int) float64 {
	return tc.EpsNode * float64(TreeLevels(n))
}

// ExpectedSpend returns the exact ledger spend after windows 1..n have
// been charged, computed by the same left-to-right fold the ledger's
// Spent performs over the same entries (one per opened level, in window
// order). The float result is therefore bit-identical to Spent — before
// and after crash/replay, and over a ledger that starts with a
// checkpoint line (which preserves the fold exactly) — which is what
// lets recovery compare them with == rather than a tolerance.
func (tc *TreeComposer) ExpectedSpend(n int) float64 {
	total := 0.0
	for i := 0; i < TreeLevels(n); i++ {
		total += tc.entry(i).Eps()
	}
	return total
}

// entry builds the ledger entry charging one newly opened level.
func (tc *TreeComposer) entry(level int) LedgerEntry {
	return LedgerEntry{
		Dataset:     tc.Dataset,
		Algorithm:   "tree",
		EpsSanitize: tc.EpsNode,
		Note:        fmt.Sprintf("tree level %d opened", level),
	}
}

// ChargeWindow durably charges the ledger for every tree level window w
// newly opens, enforcing budget, and returns the levels charged and the
// ε added. It is idempotent across crashes: if the ledger already holds
// exactly the post-window-w spend (the crash landed after the charge's
// fsync but before the caller recorded it), nothing is appended and the
// same levels/ε are reported; if it holds exactly the pre-window spend,
// the missing entries are appended; any other value means the dataset
// has been written by someone else — or history diverged — and the
// composer refuses rather than guess.
func (tc *TreeComposer) ChargeWindow(ctx context.Context, l *Ledger, w int, budget float64) (levels []int, eps float64, err error) {
	if w < 1 {
		return nil, 0, fmt.Errorf("dp: tree composer: window %d (windows are 1-based)", w)
	}
	levels = tc.NewLevels(w)
	eps = tc.EpsNode * float64(len(levels))
	before := tc.ExpectedSpend(w - 1)
	after := tc.ExpectedSpend(w)
	got := l.Spent(tc.Dataset)
	switch {
	case got == after:
		// Already settled: the charge survived a crash that lost the
		// caller's acknowledgement. Re-charging here is the double-charge
		// bug this arithmetic exists to prevent.
		return levels, eps, nil
	case got == before:
		for _, level := range levels {
			if err := l.Charge(ctx, tc.entry(level), budget); err != nil {
				return nil, 0, err
			}
		}
		return levels, eps, nil
	default:
		return nil, 0, fmt.Errorf("dp: tree composer: ledger holds ε=%.17g for %q, expected %.17g (before window %d) or %.17g (after) — the dataset is shared or its history diverged",
			got, tc.Dataset, before, w, after)
	}
}
