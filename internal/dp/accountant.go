package dp

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Composition describes how the privacy losses of child scopes combine.
type Composition int

const (
	// Sequential scopes query overlapping data: budgets add (Theorem 1).
	Sequential Composition = iota
	// Parallel scopes query disjoint partitions of the data: the loss is
	// the maximum over children (Theorem 2).
	Parallel
)

func (c Composition) String() string {
	switch c {
	case Sequential:
		return "sequential"
	case Parallel:
		return "parallel"
	default:
		return fmt.Sprintf("Composition(%d)", int(c))
	}
}

// Accountant tracks privacy budget spending as a composition tree. The
// consumption matrix composes sequentially in time and in parallel in space
// (Theorem 5); the accountant lets callers express exactly that structure
// and verifies the total privacy loss of a pipeline.
//
// An Accountant is safe for concurrent use.
type Accountant struct {
	mu   sync.Mutex
	root *scope
}

type scope struct {
	label    string
	mode     Composition
	spent    float64 // direct spends in this scope
	children []*scope
}

// NewAccountant returns an accountant whose root scope composes children
// with the given mode.
func NewAccountant(label string, mode Composition) *Accountant {
	return &Accountant{root: &scope{label: label, mode: mode}}
}

// Scope is a handle to one node of the composition tree.
type Scope struct {
	acc *Accountant
	s   *scope
}

// Root returns the accountant's root scope.
func (a *Accountant) Root() Scope { return Scope{acc: a, s: a.root} }

// Child creates (or returns the existing) child scope with the given label
// and composition mode. Looking up an existing label with a different mode
// panics: the structure of a pipeline's composition is fixed.
func (sc Scope) Child(label string, mode Composition) Scope {
	sc.acc.mu.Lock()
	defer sc.acc.mu.Unlock()
	for _, c := range sc.s.children {
		if c.label == label {
			if c.mode != mode {
				panic(fmt.Sprintf("dp: scope %q re-declared as %v, was %v", label, mode, c.mode))
			}
			return Scope{acc: sc.acc, s: c}
		}
	}
	c := &scope{label: label, mode: mode}
	sc.s.children = append(sc.s.children, c)
	return Scope{acc: sc.acc, s: c}
}

// Spend records a direct expenditure of eps within this scope. Direct
// spends always add to the scope's own loss regardless of its child
// composition mode (they are sequential with each other).
func (sc Scope) Spend(eps float64) {
	if eps < 0 {
		panic(fmt.Sprintf("dp: negative spend %v", eps))
	}
	sc.acc.mu.Lock()
	defer sc.acc.mu.Unlock()
	sc.s.spent += eps
}

// Epsilon returns the total privacy loss of this scope: its direct spends
// plus the composition (sum or max) of its children's losses.
func (sc Scope) Epsilon() float64 {
	sc.acc.mu.Lock()
	defer sc.acc.mu.Unlock()
	return sc.s.epsilon()
}

// TotalEpsilon returns the privacy loss of the whole pipeline.
func (a *Accountant) TotalEpsilon() float64 { return a.Root().Epsilon() }

func (s *scope) epsilon() float64 {
	total := s.spent
	switch s.mode {
	case Sequential:
		for _, c := range s.children {
			total += c.epsilon()
		}
	case Parallel:
		var worst float64
		for _, c := range s.children {
			if e := c.epsilon(); e > worst {
				worst = e
			}
		}
		total += worst
	}
	return total
}

// Report renders the composition tree with per-scope losses, for audit
// logs and debugging.
func (a *Accountant) Report() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	var b strings.Builder
	a.root.report(&b, 0)
	return b.String()
}

func (s *scope) report(b *strings.Builder, depth int) {
	fmt.Fprintf(b, "%s%s (%v): ε=%.6g", strings.Repeat("  ", depth), s.label, s.mode, s.epsilon())
	if s.spent > 0 {
		fmt.Fprintf(b, " [direct %.6g]", s.spent)
	}
	b.WriteByte('\n')
	// Deterministic output order.
	kids := make([]*scope, len(s.children))
	copy(kids, s.children)
	sort.Slice(kids, func(i, j int) bool { return kids[i].label < kids[j].label })
	for _, c := range kids {
		c.report(b, depth+1)
	}
}
