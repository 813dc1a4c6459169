package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The kernels are compared with the verbatim row loops of bitident_test.go
// (and refMulRows below), so they check whichever path this CPU chose. The
// Go fallbacks are called by name as well, so both paths run on an AVX
// host.

// refMulRows is the plain row loop of out = a·b (a: m x k, b: k x n):
// every output sums its k products from +0 in increasing k, with no
// skip, which is the element order of the packed and the vector kernels.
func refMulRows(out, a, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var c float64
			for kk := 0; kk < k; kk++ {
				c += a[i*k+kk] * b[kk*n+j]
			}
			out[i*n+j] = c
		}
	}
}

// sameOrNaN reports whether got and want hold the same bits, counting any
// NaN equal to any NaN: the kernels promise a NaN where the reference has
// one, not its payload.
func sameOrNaN(got, want []float64) (int, bool) {
	for i := range want {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i, false
		}
	}
	return 0, true
}

// fuzzValue maps one fuzzer byte to a value: ±0, subnormals, ±Inf, NaN,
// wide magnitudes and ordinary normals.
func fuzzValue(c byte, rng *rand.Rand) float64 {
	switch c % 16 {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Float64frombits(uint64(1 + rng.Int63n(1<<52)))
	case 3:
		return -math.Float64frombits(uint64(1 + rng.Int63n(1<<52)))
	case 4:
		return math.Inf(1)
	case 5:
		return math.Inf(-1)
	case 6:
		return math.NaN()
	case 7:
		return math.Ldexp(rng.NormFloat64(), rng.Intn(2000)-1000)
	default:
		return rng.NormFloat64()
	}
}

// FuzzKernels runs each kernel at fuzzer-chosen shapes of 0–40 per side
// on fuzzer-chosen values and compares the chosen path, and the Go
// fallback, with the row loop bit for bit.
func FuzzKernels(f *testing.F) {
	f.Add(uint8(16), uint8(16), uint8(16), int64(1), []byte{0, 4, 6, 9})
	f.Add(uint8(6), uint8(6), uint8(16), int64(2), []byte{1, 0, 5, 8, 8})
	f.Add(uint8(7), uint8(5), uint8(3), int64(3), []byte{0, 0, 4})
	f.Add(uint8(40), uint8(40), uint8(40), int64(4), []byte{2, 3, 6, 7})
	f.Fuzz(func(t *testing.T, r, c, k uint8, seed int64, vals []byte) {
		rows, cols, inner := int(r)%41, int(c)%41, int(k)%41
		rng := rand.New(rand.NewSource(seed))
		vec := func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				if len(vals) > 0 {
					v[i] = fuzzValue(vals[rng.Intn(len(vals))], rng)
				} else {
					v[i] = rng.NormFloat64()
				}
			}
			return v
		}
		check := func(what string, got, want []float64) {
			t.Helper()
			if i, ok := sameOrNaN(got, want); !ok {
				t.Fatalf("%s %dx%d (k %d): element %d = %v (%#x), want %v (%#x)", what, rows, cols, inner,
					i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}

		m := FromSlice(rows, cols, vec(rows*cols))
		x, y := vec(cols), vec(rows)

		want := refMulVecTo(m, make([]float64, rows), x)
		check("MulVecTo", m.MulVecTo(vec(rows), x), want)
		got := vec(rows)
		mulVecGo(got, m.Data, x)
		check("mulVecGo", got, want)

		want = refTMulVecTo(m, make([]float64, cols), y)
		check("TMulVecTo", m.TMulVecTo(vec(cols), y), want)
		got = vec(cols)
		tmulVecGo(got, m.Data, y)
		check("tmulVecGo", got, want)

		want = refAddOuter(m.Clone(), y, x).Data
		check("AddOuter", m.Clone().AddOuter(y, x).Data, want)
		got = append([]float64(nil), m.Data...)
		addOuterGo(got, y, x)
		check("addOuterGo", got, want)

		a, b := vec(rows*inner), vec(inner*cols)
		want = make([]float64, rows*cols)
		refMulRows(want, a, b, rows, inner, cols)
		if inner > 0 {
			check("Mul", Mul(FromSlice(rows, inner, a), FromSlice(inner, cols, b)).Data, want)
		}
		got = vec(rows * cols)
		mulRowsGo(got, a, b, inner, cols, 0, rows)
		check("mulRowsGo", got, want)

		// aᵀ·b with a: inner x rows, b: inner x cols.
		want = make([]float64, rows*cols)
		refMulATRows(want, a, b, inner, rows, cols, 0, rows)
		got = vec(rows * cols)
		mulATRows(got, a, b, inner, rows, cols, 0, rows)
		check("mulATRows", got, want)
		if rows > 1 { // a shard boundary at row 1
			got = vec(rows * cols)
			mulATRows(got, a, b, inner, rows, cols, 0, 1)
			mulATRows(got, a, b, inner, rows, cols, 1, rows)
			check("mulATRows sharded", got, want)
		}
		got = vec(rows * cols)
		mulATRowsGo(got, a, b, inner, rows, cols, 0, rows)
		check("mulATRowsGo", got, want)
	})
}

var benchSink float64

// BenchmarkKernels times each kernel at the bench-scale (16) and
// quick-scale (8) model width, on the chosen path ("chosen": AVX where
// the CPU has it) and on the Go loop ("go").
func BenchmarkKernels(b *testing.B) {
	for _, n := range []int{16, 8} {
		rng := rand.New(rand.NewSource(1))
		m := randMat(rng, n, n)
		x, dst := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		mm, out := randMat(rng, n, n), New(n, n)
		kernels := []struct {
			name         string
			chosen, loop func()
		}{
			{"MulVecTo", func() { m.MulVecTo(dst, x) }, func() { mulVecGo(dst, m.Data, x) }},
			{"TMulVecTo", func() { m.TMulVecTo(dst, x) }, func() { tmulVecGo(dst, m.Data, x) }},
			{"AddOuter", func() { m.AddOuter(x, x) }, func() { addOuterGo(m.Data, x, x) }},
			{"Mul", func() { out.Mul(m, mm) }, func() { mulRowsGo(out.Data, m.Data, mm.Data, n, n, 0, n) }},
			{"MulAT", func() { mulATRows(out.Data, m.Data, mm.Data, n, n, n, 0, n) },
				func() { mulATRowsGo(out.Data, m.Data, mm.Data, n, n, n, 0, n) }},
		}
		for _, k := range kernels {
			for _, path := range []struct {
				name string
				run  func()
			}{{"chosen", k.chosen}, {"go", k.loop}} {
				b.Run(fmt.Sprintf("%s/%dx%d/%s", k.name, n, n, path.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						path.run()
					}
					benchSink = dst[0] + out.Data[0] + m.Data[0]
				})
			}
		}
	}
}
