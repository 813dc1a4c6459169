package mat

import "sync"

// CensusCall is one kernel call as the census counts it: the kernel and
// its output rows, output columns and inner length (1 for the
// matrix-vector kernels).
type CensusCall struct {
	Kernel            string
	Rows, Cols, Inner int
}

// VectorKernels reports whether this process runs the AVX kernels.
var VectorKernels = haveAVX

// Multiplies returns the call's multiply-adds, and how many of them the
// vector kernels compute on this CPU: whole groups of four outputs, as
// kernel_amd64.go splits the work.
func (c CensusCall) Multiplies() (total, vector int) {
	total = c.Rows * c.Cols * c.Inner
	if !haveAVX {
		return total, 0
	}
	r4, n4 := c.Rows&^3, c.Cols&^3
	if c.Kernel == "MulVecTo" {
		if r4 == 0 {
			return total, 0
		}
		return total, r4 * n4
	}
	return total, c.Rows * n4 * c.Inner
}

// StartCensus wraps the five kernel variables so that every call is
// counted by shape, from any goroutine, until stop restores them and
// returns the counts.
func StartCensus() (stop func() map[CensusCall]int) {
	var mu sync.Mutex
	counts := map[CensusCall]int{}
	note := func(kernel string, rows, cols, inner int) {
		mu.Lock()
		counts[CensusCall{kernel, rows, cols, inner}]++
		mu.Unlock()
	}
	vec, tvec, outer, rows, atRows := mulVec, tmulVec, addOuter, mulRows, mulATRows
	mulVec = func(dst, a, x []float64) {
		note("MulVecTo", len(dst), len(x), 1)
		vec(dst, a, x)
	}
	tmulVec = func(dst, a, x []float64) {
		note("TMulVecTo", len(x), len(dst), 1)
		tvec(dst, a, x)
	}
	addOuter = func(m, a, b []float64) {
		note("AddOuter", len(a), len(b), 1)
		outer(m, a, b)
	}
	mulRows = func(out, a, b []float64, k, n, r0, r1 int) {
		note("Mul", r1-r0, n, k)
		rows(out, a, b, k, n, r0, r1)
	}
	mulATRows = func(out, a, b []float64, k, m, n, r0, r1 int) {
		note("MulAT", r1-r0, n, k)
		atRows(out, a, b, k, m, n, r0, r1)
	}
	return func() map[CensusCall]int {
		mulVec, tmulVec, addOuter, mulRows, mulATRows = vec, tvec, outer, rows, atRows
		return counts
	}
}
