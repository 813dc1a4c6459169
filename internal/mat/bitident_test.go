package mat

import (
	"math"
	"math/rand"
	"testing"
)

// The reference kernels below are the one-row loops the interleaved
// kernels replaced, kept verbatim. Each rewritten kernel must produce the
// same bits as its reference on every shape and input, because the
// rewrites only change which outputs progress together, never the order
// of the terms inside one output.

func refMulVecTo(m *Matrix, dst, x []float64) []float64 {
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : i*m.Cols+len(x)]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
	return dst
}

func refTMulVecTo(m *Matrix, dst, x []float64) []float64 {
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

func refAddOuter(m *Matrix, a, b []float64) *Matrix {
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

func refMulATRows(out, a, b []float64, k, m, n, r0, r1 int) {
	for i := r0; i < r1; i++ {
		o := out[i*n : i*n+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			var c0, c1, c2, c3 float64
			for kk := 0; kk < k; kk++ {
				av := a[kk*m+i]
				br := b[kk*n+j : kk*n+j+4]
				c0 += av * br[0]
				c1 += av * br[1]
				c2 += av * br[2]
				c3 += av * br[3]
			}
			o[j], o[j+1], o[j+2], o[j+3] = c0, c1, c2, c3
		}
		for ; j < n; j++ {
			var c float64
			for kk := 0; kk < k; kk++ {
				c += a[kk*m+i] * b[kk*n+j]
			}
			o[j] = c
		}
	}
}

// edgeValue draws from a mix that exercises every bit-level hazard of the
// kernels: exact +0 and −0 (the zero skips and signed-zero sums),
// subnormals, values of both signs across many magnitudes, and ordinary
// normals.
func edgeValue(rng *rand.Rand) float64 {
	switch rng.Intn(10) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Float64frombits(uint64(1 + rng.Int63n(1<<52))) // subnormal
	case 3:
		return -math.Float64frombits(uint64(1 + rng.Int63n(1<<52)))
	case 4:
		return math.Ldexp(rng.NormFloat64(), rng.Intn(200)-100)
	default:
		return rng.NormFloat64()
	}
}

func edgeVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = edgeValue(rng)
	}
	return v
}

func edgeMat(rng *rand.Rand, rows, cols int) *Matrix {
	return FromSlice(rows, cols, edgeVec(rng, rows*cols))
}

// zeroLanes returns copies of x with an exact zero (alternately +0 and
// −0) placed at each of the four lanes of every 4-element group in turn,
// plus x itself with no zero at all.
func zeroLanes(x []float64) [][]float64 {
	out := [][]float64{nonZero(x)}
	for lane := 0; lane < 4; lane++ {
		v := nonZero(x)
		for i := lane; i < len(v); i += 4 {
			v[i] = math.Copysign(0, float64(1-2*(i/4%2)))
		}
		out = append(out, v)
	}
	return out
}

func nonZero(x []float64) []float64 {
	v := append([]float64(nil), x...)
	for i := range v {
		if v[i] == 0 {
			v[i] = 0.5
		}
	}
	return v
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

const maxBitShape = 37 // every 4-row and 2-row remainder path, several times

func TestMulVecToBitIdenticalToRowLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for rows := 0; rows <= maxBitShape; rows++ {
		for cols := 0; cols <= maxBitShape; cols++ {
			m := edgeMat(rng, rows, cols)
			x := edgeVec(rng, cols)
			want := refMulVecTo(m, make([]float64, rows), x)
			got := m.MulVecTo(make([]float64, rows), x)
			sameBits(t, "MulVecTo", got, want)
		}
	}
}

func TestTMulVecToBitIdenticalToRowLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for rows := 0; rows <= maxBitShape; rows++ {
		for cols := 0; cols <= maxBitShape; cols++ {
			m := edgeMat(rng, rows, cols)
			for _, x := range append(zeroLanes(edgeVec(rng, rows)), edgeVec(rng, rows)) {
				want := refTMulVecTo(m, make([]float64, cols), x)
				dst := edgeVec(rng, cols) // must be overwritten, not added to
				sameBits(t, "TMulVecTo", m.TMulVecTo(dst, x), want)
			}
		}
	}
}

func TestAddOuterBitIdenticalToRowLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for rows := 0; rows <= maxBitShape; rows++ {
		for cols := 0; cols <= maxBitShape; cols++ {
			base := edgeMat(rng, rows, cols)
			b := edgeVec(rng, cols)
			for _, a := range append(zeroLanes(edgeVec(rng, rows)), edgeVec(rng, rows)) {
				want := refAddOuter(base.Clone(), a, b)
				got := base.Clone().AddOuter(a, b)
				sameBits(t, "AddOuter", got.Data, want.Data)
			}
		}
	}
}

func TestMulATRowsBitIdenticalToRowLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, k := range []int{0, 1, 3, 6, 16} {
		for m := 0; m <= maxBitShape; m++ {
			for n := 0; n <= maxBitShape; n++ {
				a := edgeVec(rng, k*m)
				b := edgeVec(rng, k*n)
				want := make([]float64, m*n)
				refMulATRows(want, a, b, k, m, n, 0, m)
				got := make([]float64, m*n)
				mulATRows(got, a, b, k, m, n, 0, m)
				sameBits(t, "mulATRows", got, want)
				if m > 2 { // an odd-aligned shard boundary
					got2 := make([]float64, m*n)
					mulATRows(got2, a, b, k, m, n, 0, 1)
					mulATRows(got2, a, b, k, m, n, 1, m)
					sameBits(t, "mulATRows sharded", got2, want)
				}
			}
		}
	}
}

func BenchmarkMatVec16(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := randMat(rng, 16, 16)
	x := make([]float64, 16)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	dst := make([]float64, 16)
	b.Run("MulVecTo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.MulVecTo(dst, x)
		}
	})
	b.Run("TMulVecTo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.TMulVecTo(dst, x)
		}
	})
	b.Run("AddOuter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.AddOuter(x, dst)
		}
	})
}
