package mat

import (
	"math"
	"reflect"
	"sync"
)

// CensusCall is one kernel call as the census counts it: the kernel and
// its output rows, output columns and inner length (1 for the
// matrix-vector kernels).
type CensusCall struct {
	Kernel            string
	Rows, Cols, Inner int
}

// VectorKernels reports whether this process runs the AVX kernels.
var VectorKernels = haveAVX

// VectorActivations reports whether this process runs the activation
// kernels.
var VectorActivations = vectorActivations

// ActivationCount tallies the activation calls of one kernel and length:
// the calls, their elements, and the elements the vector kernels computed.
type ActivationCount struct{ Calls, Elements, Vector int }

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

// StartCensus wraps the five kernel variables and the three activation
// variables so that every call is counted, from any goroutine, until stop
// restores them and returns the counts: the kernels' calls by shape, and
// the activations' by kernel and length (Rows 1, Cols the length, Inner
// 1). An activation's group of four counts as vector when the variable
// holds something other than the Go loop and every lane holds an input
// the kernels cover, as activation_amd64.go splits the work.
func StartCensus() (stop func() (map[CensusCall]int, map[CensusCall]*ActivationCount)) {
	var mu sync.Mutex
	counts := map[CensusCall]int{}
	activations := map[CensusCall]*ActivationCount{}
	note := func(kernel string, rows, cols, inner int) {
		mu.Lock()
		counts[CensusCall{kernel, rows, cols, inner}]++
		mu.Unlock()
	}
	activation := func(kernel string, covers func(float64) bool, run, loop func(dst, x []float64)) func(dst, x []float64) {
		onVector := reflect.ValueOf(run).Pointer() != reflect.ValueOf(loop).Pointer()
		return func(dst, x []float64) {
			vector := 0
			for i := 0; onVector && i+4 <= len(x); i += 4 {
				if covers(x[i]) && covers(x[i+1]) && covers(x[i+2]) && covers(x[i+3]) {
					vector += 4
				}
			}
			mu.Lock()
			c := CensusCall{kernel, 1, len(x), 1}
			if activations[c] == nil {
				activations[c] = &ActivationCount{}
			}
			a := activations[c]
			a.Calls++
			a.Elements += len(x)
			a.Vector += vector
			mu.Unlock()
			run(dst, x)
		}
	}
	inExpRange := func(v float64) bool { return math.Abs(v) <= 708 }
	notNaN := func(v float64) bool { return !math.IsNaN(v) }
	vec, tvec, outer, rows, atRows := mulVec, tmulVec, addOuter, mulRows, mulATRows
	exp, sig, tanh := expTo, sigmoidTo, tanhTo
	expTo = activation("ExpTo", inExpRange, exp, expGo)
	sigmoidTo = activation("SigmoidTo", inExpRange, sig, sigmoidGo)
	tanhTo = activation("TanhTo", notNaN, tanh, tanhGo)
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
	return func() (map[CensusCall]int, map[CensusCall]*ActivationCount) {
		mulVec, tmulVec, addOuter, mulRows, mulATRows = vec, tvec, outer, rows, atRows
		expTo, sigmoidTo, tanhTo = exp, sig, tanh
		return counts, activations
	}
}
