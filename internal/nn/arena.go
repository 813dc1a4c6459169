package nn

import "repro/internal/mat"

// arena is a bump allocator for the per-sample forward/backward scratch of
// one model instance. Forward resets it, Backward keeps allocating from the
// same pass, so everything handed out — step inputs, cache slabs, gradient
// temporaries, whole matrices — is valid until the NEXT Forward on the same
// instance. That matches how every caller in the tree already uses caches
// (Backward always runs before the next Forward), and it is what turns the
// BPTT window loop into a zero-steady-state-allocation path: after the
// first sample has sized the slabs, training touches the garbage collector
// only for the slices the optimiser warms once.
//
// Shadow clones own their own arenas, so data-parallel workers never share
// scratch. An arena is single-goroutine, like the layers that use it.
type arena struct {
	slabs [][]float64
	cur   int // active slab index
	off   int // bump offset inside the active slab

	mats pool[mat.Matrix] // matrix headers handed out by matrix()
}

// arenaSlab is the minimum slab size in float64s. One training pass of the
// quick-scale models fits in a couple of slabs.
const arenaSlab = 1 << 12

// reset rewinds the arena to empty, keeping every slab for reuse. Previously
// returned slices become invalid (they will be handed out again).
func (a *arena) reset() {
	a.cur, a.off = 0, 0
	a.mats.reset()
}

// alloc returns a zeroed slice of n float64s with capacity exactly n (so
// appends by callers cannot bleed into neighbouring allocations).
func (a *arena) alloc(n int) []float64 {
	for {
		if a.cur < len(a.slabs) {
			s := a.slabs[a.cur]
			if a.off+n <= len(s) {
				out := s[a.off : a.off+n : a.off+n]
				a.off += n
				clear(out)
				return out
			}
			// Tail too small; move on. The waste is bounded and the
			// allocation sequence is identical every pass, so steady state
			// lands in the same slabs each time.
			a.cur++
			a.off = 0
			continue
		}
		sz := arenaSlab
		if n > sz {
			sz = n
		}
		a.slabs = append(a.slabs, make([]float64, sz))
	}
}

// matrix returns a rows x cols matrix backed by arena storage. The header
// itself comes from a pool so steady-state passes allocate no headers
// either.
func (a *arena) matrix(rows, cols int) *mat.Matrix {
	m := a.mats.next()
	m.Rows, m.Cols = rows, cols
	m.Data = a.alloc(rows * cols)
	return m
}

// tmulVec returns wᵀ·x in arena storage.
func (a *arena) tmulVec(w *mat.Matrix, x []float64) []float64 {
	return w.TMulVecTo(a.alloc(w.Cols), x)
}

// pool hands out T values that live for one pass, the way arena hands out
// floats: next returns the following value, growing the pool on first
// use, and reset rewinds it at the start of the next pass. Callers set
// every field of the value next returns. A pointer from next stays valid
// for the rest of the pass even when a later next grows the pool: it
// still reaches the old backing array, which nothing writes again.
type pool[T any] struct {
	items []T
	n     int
}

func (p *pool[T]) next() *T {
	if p.n == len(p.items) {
		var zero T
		p.items = append(p.items, zero)
	}
	v := &p.items[p.n]
	p.n++
	return v
}

func (p *pool[T]) reset() { p.n = 0 }

// arenaUser is implemented by every layer and cell: setArena attaches the
// owning model's arena, and resetScratch rewinds the layer's per-pass
// pools at the start of every model Forward.
type arenaUser interface {
	setArena(*arena)
	resetScratch()
}
