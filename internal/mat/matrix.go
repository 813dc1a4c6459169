// Package mat provides dense float64 matrix and vector algebra used by the
// neural network, Kalman filter and convex optimisation substrates. It is a
// deliberately small, allocation-conscious library: matrices are row-major
// slices, every operation documents whether it allocates, and the five hot
// loops run as AVX assembly on amd64 CPUs that have it, with the same bits
// as the Go loops that run everywhere else (see kernel.go).
package mat

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64 values.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// New returns a zero-initialised Rows x Cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows x cols matrix.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: FromSlice data length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// FromRows builds a matrix by copying the given rows, which must be equal length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("mat: FromRows ragged input")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.Data[i*m.Cols+j]
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.Data[i*m.Cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
}

// Row returns row i as a slice aliasing the matrix storage. The panic
// formatting lives in a separate noinline helper so Row itself stays
// under the inlining budget — it is called per row inside every kernel.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.Rows {
		rowPanic(i, m.Rows)
	}
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

//go:noinline
func rowPanic(i, rows int) {
	panic(fmt.Sprintf("mat: row %d out of range %d", i, rows))
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// CopyFrom copies src into m; dimensions must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic("mat: CopyFrom dimension mismatch")
	}
	copy(m.Data, src.Data)
}

// Zero resets every element to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*m.Rows+i] = v
		}
	}
	return out
}

// Add stores a+b into m (which may alias a or b) and returns m.
func (m *Matrix) Add(a, b *Matrix) *Matrix {
	sameShape3(m, a, b)
	ad, bd := a.Data[:len(m.Data)], b.Data[:len(m.Data)]
	for i := range m.Data {
		m.Data[i] = ad[i] + bd[i]
	}
	return m
}

func sameShape2(a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

func sameShape3(a, b, c *Matrix) {
	sameShape2(a, b)
	sameShape2(a, c)
}

// Mul stores a*b into m and returns m. m must not alias a or b.
// Results are bit-identical to the historical k-blocked kernel because
// each element still accumulates its k terms in increasing order, both
// in the AVX row kernel, which reads b in place, and in the Go kernel,
// which packs b into column panels and computes register tiles (see
// kernel.go).
func (m *Matrix) Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul inner dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if m.Rows != a.Rows || m.Cols != b.Cols {
		panic(fmt.Sprintf("mat: Mul output shape %dx%d, want %dx%d", m.Rows, m.Cols, a.Rows, b.Cols))
	}
	if a.Cols == 0 {
		m.Zero()
		return m
	}
	mulRows(m.Data, a.Data, b.Data, a.Cols, b.Cols, 0, a.Rows)
	return m
}

// Mul returns a*b as a new matrix.
func Mul(a, b *Matrix) *Matrix {
	return New(a.Rows, b.Cols).Mul(a, b)
}

// MulBTTo stores a·bᵀ into m and returns m. a is M x K, b is N x K and
// m is M x N; m must not alias a or b. The result is bit-identical to
// m.Mul(a, b.T()) without materialising the transpose.
func MulBTTo(m, a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic("mat: MulBTTo inner dimension mismatch")
	}
	if m.Rows != a.Rows || m.Cols != b.Rows {
		panic("mat: MulBTTo output shape mismatch")
	}
	mulBTRows(m.Data, a.Data, b.Data, a.Cols, b.Rows, 0, a.Rows)
	return m
}

// MulATTo stores aᵀ·b into m and returns m. a is K x M, b is K x N and
// m is M x N; m must not alias a or b. The result is bit-identical to
// m.Mul(a.T(), b) without materialising the transpose.
func MulATTo(m, a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic("mat: MulATTo inner dimension mismatch")
	}
	if m.Rows != a.Cols || m.Cols != b.Cols {
		panic("mat: MulATTo output shape mismatch")
	}
	mulATRows(m.Data, a.Data, b.Data, a.Rows, a.Cols, b.Cols, 0, a.Cols)
	return m
}

// MulVec computes y = a*x for a vector x of length a.Cols.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("mat: MulVec length %d, want %d", len(x), m.Cols))
	}
	return m.MulVecTo(make([]float64, m.Rows), x)
}

// MulVecTo computes dst = a*x into a caller-provided buffer and returns
// dst. dst must have length a.Rows and must not alias x. This is the
// zero-allocation counterpart of MulVec for layers that reuse scratch
// buffers across forward/backward steps.
func (m *Matrix) MulVecTo(dst, x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("mat: MulVecTo length %d, want %d", len(x), m.Cols))
	}
	if len(dst) != m.Rows {
		panic(fmt.Sprintf("mat: MulVecTo dst length %d, want %d", len(dst), m.Rows))
	}
	mulVec(dst, m.Data, x)
	return dst
}

// mulVecGo is MulVecTo's portable loop over a (len(dst) x len(x)).
//
// Four rows run at a time with four independent accumulators, so the
// adds of one row no longer wait on each other's latency. Every output
// still sums its terms alone, from 0 and in increasing j, so values are
// unchanged. Rows are resliced to exactly len(x), which lets the
// compiler drop the bounds checks of the inner loop.
func mulVecGo(dst, a, x []float64) {
	n := len(x)
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		r0 := a[i*n:]
		r0 = r0[:len(x)]
		r1 := a[(i+1)*n:]
		r1 = r1[:len(x)]
		r2 := a[(i+2)*n:]
		r2 = r2[:len(x)]
		r3 := a[(i+3)*n:]
		r3 = r3[:len(x)]
		var s0, s1, s2, s3 float64
		for j, xv := range x {
			s0 += r0[j] * xv
			s1 += r1[j] * xv
			s2 += r2[j] * xv
			s3 += r3[j] * xv
		}
		d := dst[i : i+4]
		d[0], d[1], d[2], d[3] = s0, s1, s2, s3
	}
	for ; i < len(dst); i++ {
		row := a[i*n:]
		row = row[:len(x)]
		var s float64
		for j, xv := range x {
			s += row[j] * xv
		}
		dst[i] = s
	}
}

// KahanSum returns a compensated sum of v, robust to cancellation.
func KahanSum(v []float64) float64 {
	var sum, comp float64
	for _, x := range v {
		y := x - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// Sum returns the compensated (Kahan) sum of all elements of m.
func (m *Matrix) Sum() float64 { return KahanSum(m.Data) }

// MaxAbs returns the largest absolute element of m (0 for empty).
func (m *Matrix) MaxAbs() float64 {
	var best float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > best {
			best = a
		}
	}
	return best
}

// Equal reports whether a and b have the same shape and all elements within tol.
func Equal(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	s := fmt.Sprintf("mat %dx%d [", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}
