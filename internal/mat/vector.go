package mat

import (
	"math"
	"math/rand"
)

// Vector helpers operate on plain []float64 to keep call sites light.

// AddVec stores a+b into dst (which may alias either input).
func AddVec(dst, a, b []float64) {
	checkLen(len(dst), len(a), len(b))
	a, b = a[:len(dst)], b[:len(dst)] // lets the compiler drop bounds checks
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// ScaleVec stores s*a into dst.
func ScaleVec(dst []float64, s float64, a []float64) {
	checkLen(len(dst), len(a), len(a))
	for i := range dst {
		dst[i] = s * a[i]
	}
}

// AxpyVec performs dst += s*a.
func AxpyVec(dst []float64, s float64, a []float64) {
	checkLen(len(dst), len(a), len(a))
	a = a[:len(dst)]
	for i := range dst {
		dst[i] += s * a[i]
	}
}

// HadamardVec stores a*b element-wise into dst.
func HadamardVec(dst, a, b []float64) {
	checkLen(len(dst), len(a), len(b))
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}

func checkLen(a, b, c int) {
	if a != b || b != c {
		panic("mat: vector length mismatch")
	}
}

// Softmax writes the softmax of x into dst using the max-shift trick for
// numerical stability. dst may be x itself.
func Softmax(dst, x []float64) {
	if len(dst) != len(x) {
		panic("mat: Softmax length mismatch")
	}
	if len(x) == 0 {
		return
	}
	max := x[0]
	for _, v := range x[1:] {
		if v > max {
			max = v
		}
	}
	for i, v := range x {
		dst[i] = v - max
	}
	ExpTo(dst, dst)
	var sum float64
	for _, e := range dst {
		sum += e
	}
	inv := 1 / sum
	for i := range dst {
		dst[i] *= inv
	}
}

// Mean returns the arithmetic mean of v (0 for empty).
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return KahanSum(v) / float64(len(v))
}

// Variance returns the population variance of v.
func Variance(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	m := Mean(v)
	var s float64
	for _, x := range v {
		d := x - m
		s += d * d
	}
	return s / float64(len(v))
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// RandUniform fills m with samples from U(-scale, scale).
func (m *Matrix) RandUniform(rng *rand.Rand, scale float64) *Matrix {
	for i := range m.Data {
		m.Data[i] = (2*rng.Float64() - 1) * scale
	}
	return m
}

// RandNormal fills m with samples from N(0, std²).
func (m *Matrix) RandNormal(rng *rand.Rand, std float64) *Matrix {
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * std
	}
	return m
}

// GlorotUniform fills m with the Glorot/Xavier uniform initialisation for a
// layer with fanIn inputs and fanOut outputs.
func (m *Matrix) GlorotUniform(rng *rand.Rand, fanIn, fanOut int) *Matrix {
	scale := math.Sqrt(6 / float64(fanIn+fanOut))
	return m.RandUniform(rng, scale)
}

// AddOuter performs m += a*bᵀ in place. Rows whose a value is exactly
// zero are skipped, as sparse backward signals are common.
func (m *Matrix) AddOuter(a, b []float64) *Matrix {
	if m.Rows != len(a) || m.Cols != len(b) {
		panic("mat: AddOuter shape mismatch")
	}
	addOuter(m.Data, a, b)
	return m
}

// addOuterGo is AddOuter's portable loop over m (len(a) x len(b)).
//
// Rows run four at a time, so each b value loaded serves four rows. Every
// element still receives its one product, so values are unchanged. A
// group that holds an exact zero a falls back to the one-row loop, so the
// skip stays per row.
func addOuterGo(m, a, b []float64) {
	n := len(b)
	i := 0
	for ; i+4 <= len(a); i += 4 {
		a0, a1, a2, a3 := a[i], a[i+1], a[i+2], a[i+3]
		if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
			addOuterRows(m, a, b, i, i+4)
			continue
		}
		r0 := m[i*n:]
		r0 = r0[:len(b)]
		r1 := m[(i+1)*n:]
		r1 = r1[:len(b)]
		r2 := m[(i+2)*n:]
		r2 = r2[:len(b)]
		r3 := m[(i+3)*n:]
		r3 = r3[:len(b)]
		for j, bv := range b {
			r0[j] += a0 * bv
			r1[j] += a1 * bv
			r2[j] += a2 * bv
			r3[j] += a3 * bv
		}
	}
	addOuterRows(m, a, b, i, len(a))
}

// addOuterRows adds a[i]*bᵀ into rows [i0, i1) of m one row at a time,
// skipping rows whose a value is exactly zero.
func addOuterRows(m, a, b []float64, i0, i1 int) {
	n := len(b)
	for i := i0; i < i1; i++ {
		av := a[i]
		if av == 0 {
			continue
		}
		row := m[i*n:]
		row = row[:len(b)]
		for j, bv := range b {
			row[j] += av * bv
		}
	}
}

// TMulVec computes y = aᵀ*x for a vector x of length a.Rows, without
// materialising the transpose.
func (m *Matrix) TMulVec(x []float64) []float64 {
	return m.TMulVecTo(make([]float64, m.Cols), x)
}

// TMulVecTo computes dst = aᵀ*x into a caller-provided buffer and returns
// dst. dst must not alias x; it is overwritten, so results match TMulVec
// bit-for-bit. A row whose x value is exactly zero is skipped, which keeps
// sparse backward signals cheap.
func (m *Matrix) TMulVecTo(dst, x []float64) []float64 {
	if len(x) != m.Rows {
		panic("mat: TMulVec length mismatch")
	}
	if len(dst) != m.Cols {
		panic("mat: TMulVecTo dst length mismatch")
	}
	tmulVec(dst, m.Data, x)
	return dst
}

// tmulVecGo is TMulVecTo's portable loop over a (len(x) x len(dst)).
//
// Rows run four at a time: dst[j] stays in a register while rows i..i+3
// add into it in increasing i, which is the order the one-row loop adds
// them in, so every output keeps its bits. A group that holds an exact
// zero x falls back to the one-row loop, so the skip stays per row.
func tmulVecGo(dst, a, x []float64) {
	clear(dst)
	n := len(dst)
	i := 0
	for ; i+4 <= len(x); i += 4 {
		x0, x1, x2, x3 := x[i], x[i+1], x[i+2], x[i+3]
		if x0 == 0 || x1 == 0 || x2 == 0 || x3 == 0 {
			tmulRows(dst, a, x, i, i+4)
			continue
		}
		r0 := a[i*n:]
		r0 = r0[:len(dst)]
		r1 := a[(i+1)*n:]
		r1 = r1[:len(dst)]
		r2 := a[(i+2)*n:]
		r2 = r2[:len(dst)]
		r3 := a[(i+3)*n:]
		r3 = r3[:len(dst)]
		for j, d := range dst {
			d += x0 * r0[j]
			d += x1 * r1[j]
			d += x2 * r2[j]
			d += x3 * r3[j]
			dst[j] = d
		}
	}
	tmulRows(dst, a, x, i, len(x))
}

// tmulRows adds rows [i0, i1) of a, scaled by x, into dst one row at a
// time, skipping rows whose x value is exactly zero.
func tmulRows(dst, a, x []float64, i0, i1 int) {
	n := len(dst)
	for i := i0; i < i1; i++ {
		xv := x[i]
		if xv == 0 {
			continue
		}
		row := a[i*n:]
		row = row[:len(dst)]
		for j, v := range row {
			dst[j] += xv * v
		}
	}
}
