package mat

import (
	"fmt"
	"math/rand"
	"testing"
)

// refMul reimplements the historical k-blocked kernel (per-element
// accumulation in increasing k order with the av == 0 skip) as the
// bit-identity reference for the packed tiled kernel.
func refMul(a, b *Matrix) *Matrix {
	const block = 64
	out := New(a.Rows, b.Cols)
	for kb := 0; kb < a.Cols; kb += block {
		kend := kb + block
		if kend > a.Cols {
			kend = a.Cols
		}
		for i := 0; i < a.Rows; i++ {
			arow := a.Row(i)
			orow := out.Row(i)
			for k := kb; k < kend; k++ {
				av := arow[k]
				if av == 0 {
					continue
				}
				brow := b.Row(k)
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
	}
	return out
}

func randMat(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		switch rng.Intn(8) {
		case 0:
			m.Data[i] = 0 // exercise the dropped av == 0 skip
		case 1:
			m.Data[i] = -0.0
		default:
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

// TestMulBitIdenticalToHistoricalKernel locks the tiled kernel to the exact
// bit patterns of the pre-PR blocked kernel across odd shapes, including
// rows/cols around the microMR/microNR tile boundaries.
func TestMulBitIdenticalToHistoricalKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dims := []int{1, 2, 3, 4, 5, 7, 8, 16, 33, 65}
	for _, m := range dims {
		for _, k := range dims {
			for _, n := range dims {
				a := randMat(rng, m, k)
				b := randMat(rng, k, n)
				want := refMul(a, b)
				got := Mul(a, b)
				for i := range want.Data {
					if want.Data[i] != got.Data[i] {
						t.Fatalf("Mul %dx%dx%d: element %d = %x, want %x",
							m, k, n, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

func TestMulBTMatchesTransposedMul(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, d := range [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 7, 3}, {8, 8, 8}, {13, 1, 9}, {33, 17, 65}} {
		m, k, n := d[0], d[1], d[2]
		a := randMat(rng, m, k)
		b := randMat(rng, n, k) // b: n x k so a·bᵀ is m x n
		want := Mul(a, b.T())
		got := New(m, n)
		got.Fill(99) // must be overwritten, not accumulated into
		if !Equal(want, MulBTTo(got, a, b), 0) {
			t.Fatalf("MulBTTo %v differs from Mul(a, b.T())", d)
		}
	}
}

func TestMulATMatchesTransposedMul(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, d := range [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 7, 3}, {8, 8, 8}, {13, 1, 9}, {33, 17, 65}} {
		m, k, n := d[0], d[1], d[2]
		a := randMat(rng, k, m) // a: k x m so aᵀ·b is m x n
		b := randMat(rng, k, n)
		want := Mul(a.T(), b)
		got := New(m, n)
		got.Fill(99) // must be overwritten, not accumulated into
		if !Equal(want, MulATTo(got, a, b), 0) {
			t.Fatalf("MulATTo %v differs from Mul(a.T(), b)", d)
		}
	}
}

// TestMulToZeroAllocsSteadyState pins that the packed kernel's scratch is
// pooled: after warm-up, multiplying into an existing output allocates
// nothing.
func TestMulToZeroAllocsSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randMat(rng, 16, 24)
	b := randMat(rng, 24, 12)
	out := New(16, 12)
	out.Mul(a, b) // warm the pool
	if allocs := testing.AllocsPerRun(50, func() { out.Mul(a, b) }); allocs != 0 {
		t.Fatalf("Mul into existing output allocates %v per run, want 0", allocs)
	}
	bt := randMat(rng, 12, 24) // a·btᵀ is 16 x 12
	if allocs := testing.AllocsPerRun(50, func() { MulBTTo(out, a, bt) }); allocs != 0 {
		t.Fatalf("MulBTTo into existing output allocates %v per run, want 0", allocs)
	}
	at := randMat(rng, 24, 16) // atᵀ·(at·?) — use atᵀ·b2 of shape 16 x 12
	b2 := randMat(rng, 24, 12)
	if allocs := testing.AllocsPerRun(50, func() { MulATTo(out, at, b2) }); allocs != 0 {
		t.Fatalf("MulATTo into existing output allocates %v per run, want 0", allocs)
	}
}

func TestTMulVecToMatchesTMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := randMat(rng, 9, 5)
	x := make([]float64, 9)
	for i := range x {
		if i%3 == 0 {
			x[i] = 0 // exercise the skip path
		} else {
			x[i] = rng.NormFloat64()
		}
	}
	want := m.TMulVec(x)
	dst := make([]float64, 5)
	for i := range dst {
		dst[i] = 42 // must be overwritten, not accumulated into
	}
	got := m.TMulVecTo(dst, x)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("TMulVecTo[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	allocs := testing.AllocsPerRun(50, func() { m.TMulVecTo(dst, x) })
	if allocs != 0 {
		t.Fatalf("TMulVecTo allocates %v per run, want 0", allocs)
	}
}

func TestMulKZeroZeroesOutput(t *testing.T) {
	a := New(3, 0)
	b := New(0, 4)
	out := New(3, 4)
	out.Fill(99)
	out.Mul(a, b)
	for i, v := range out.Data {
		if v != 0 {
			t.Fatalf("K=0 product element %d = %v, want 0", i, v)
		}
	}
}

func BenchmarkMulPacked(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{16, 64, 128} {
		x := randMat(rng, size, size)
		y := randMat(rng, size, size)
		out := New(size, size)
		b.Run(fmt.Sprintf("n%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out.Mul(x, y)
			}
		})
	}
}
