package mat

import (
	"math"
	"math/rand"
)

// Vector helpers operate on plain []float64 to keep call sites light.

// AddVec stores a+b into dst (which may alias either input).
func AddVec(dst, a, b []float64) {
	checkLen(len(dst), len(a), len(b))
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
	for i := range dst {
		dst[i] += s * a[i]
	}
}

// HadamardVec stores a*b element-wise into dst.
func HadamardVec(dst, a, b []float64) {
	checkLen(len(dst), len(a), len(b))
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
// numerical stability.
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
	var sum float64
	for i, v := range x {
		e := math.Exp(v - max)
		dst[i] = e
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

// AddOuter performs m += a*bᵀ in place.
func (m *Matrix) AddOuter(a, b []float64) *Matrix {
	if m.Rows != len(a) || m.Cols != len(b) {
		panic("mat: AddOuter shape mismatch")
	}
	for i, av := range a {
		if av == 0 {
			continue
		}
		row := m.Row(i)
		for j, bv := range b {
			row[j] += av * bv
		}
	}
	return m
}

// TMulVec computes y = aᵀ*x for a vector x of length a.Rows, without
// materialising the transpose.
func (m *Matrix) TMulVec(x []float64) []float64 {
	return m.TMulVecTo(make([]float64, m.Cols), x)
}

// TMulVecTo computes dst = aᵀ*x into a caller-provided buffer and returns
// dst. dst must not alias x; it is zeroed first, so results match TMulVec
// bit-for-bit (including the xv == 0 row skip, which keeps sparse backward
// signals cheap).
func (m *Matrix) TMulVecTo(dst, x []float64) []float64 {
	if len(x) != m.Rows {
		panic("mat: TMulVec length mismatch")
	}
	if len(dst) != m.Cols {
		panic("mat: TMulVecTo dst length mismatch")
	}
	for j := range dst {
		dst[j] = 0
	}
	for i, xv := range x {
		if xv == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			dst[j] += xv * v
		}
	}
	return dst
}
