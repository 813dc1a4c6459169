package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refSoftmax is Softmax as it was before it called ExpTo, kept verbatim.
func refSoftmax(dst, x []float64) {
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

// activationEdges holds the inputs where a kernel changes branch or range,
// each with its Nextafter neighbours, on both signs: 0, the smallest and
// the largest subnormal, 708 (the kernels' exp range), 0.625 and
// 0.5·MAXLOG (tanh's branches); then ±Inf and NaN.
var activationEdges = func() []float64 {
	const halfMaxlog = 0.5 * 8.8029691931113054295988e+01
	var edges []float64
	for _, b := range []float64{0, math.SmallestNonzeroFloat64, math.Float64frombits(1<<52 - 1), 708, 0.625, halfMaxlog} {
		for _, v := range []float64{math.Nextafter(b, math.Inf(-1)), b, math.Nextafter(b, math.Inf(1))} {
			edges = append(edges, v, -v)
		}
	}
	return append(edges, math.Inf(1), math.Inf(-1), math.NaN())
}()

// activationValue maps one fuzzer byte to an input: from 0x80 up, an edge
// of activationEdges; below it ±0, subnormals, ±Inf, NaN, values across
// exp's range and past it, the gates' usual range, and wide magnitudes.
func activationValue(c byte, rng *rand.Rand) float64 {
	if c >= 0x80 {
		return activationEdges[int(c-0x80)%len(activationEdges)]
	}
	switch c % 12 {
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
		return (2*rng.Float64() - 1) * 720
	case 8:
		return (2*rng.Float64() - 1) * 50
	case 9:
		return math.Ldexp(rng.NormFloat64(), rng.Intn(2000)-1000)
	default:
		return 4 * rng.NormFloat64()
	}
}

// FuzzActivations runs ExpTo, SigmoidTo and TanhTo, on the chosen path and
// on the Go loop, and Softmax at fuzzer-chosen lengths 0–40 (so every tail
// runs), into a separate dst and in place, and compares each element with
// the scalar call (with refSoftmax for Softmax) by math.Float64bits; any
// NaN counts equal to any NaN.
func FuzzActivations(f *testing.F) {
	edges := make([]byte, len(activationEdges))
	for i := range edges {
		edges[i] = 0x80 + byte(i)
	}
	for shift := 0; shift < 4; shift++ { // every edge in every lane
		f.Add(uint8(40), int64(shift), append(edges[shift:], edges[:shift]...), shift%2 == 1)
	}
	f.Add(uint8(16), int64(5), []byte{7, 8, 10, 11}, false)
	f.Add(uint8(6), int64(6), []byte{8, 10}, true)
	f.Add(uint8(23), int64(7), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, true)
	f.Fuzz(func(t *testing.T, length uint8, seed int64, vals []byte, inPlace bool) {
		n := int(length) % 41
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, n)
		for i := range x {
			if len(vals) > 0 {
				x[i] = activationValue(vals[i%len(vals)], rng)
			} else {
				x[i] = 4 * rng.NormFloat64()
			}
		}
		run := func(f func(dst, x []float64)) []float64 {
			if inPlace {
				dst := append([]float64(nil), x...)
				f(dst, dst)
				return dst
			}
			dst := make([]float64, n)
			for i := range dst {
				dst[i] = math.NaN() // must be overwritten
			}
			f(dst, x)
			return dst
		}
		check := func(what string, got, want []float64) {
			t.Helper()
			if i, ok := sameOrNaN(got, want); !ok {
				t.Fatalf("%s (n %d, in place %v): element %d of x = %v (%#x) gives %v (%#x), want %v (%#x)",
					what, n, inPlace, i, x[i], math.Float64bits(x[i]),
					got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
		for _, a := range []struct {
			name           string
			scalar         func(float64) float64
			chosen, goLoop func(dst, x []float64)
		}{
			{"ExpTo", math.Exp, ExpTo, expGo},
			{"SigmoidTo", Sigmoid, SigmoidTo, sigmoidGo},
			{"TanhTo", math.Tanh, TanhTo, tanhGo},
		} {
			want := make([]float64, n)
			for i, v := range x {
				want[i] = a.scalar(v)
			}
			check(a.name, run(a.chosen), want)
			check(a.name+" Go loop", run(a.goLoop), want)
		}
		want := make([]float64, n)
		refSoftmax(want, x)
		check("Softmax", run(Softmax), want)
	})
}

// TestActivationsMatchScalar compares the chosen path with the scalar
// calls on a million inputs spread over the gates' usual range and over
// exp's covered range and past it, so that about one group in ten runs in
// Go; math.Exp's FMA and non-FMA sequences often differ there.
func TestActivationsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 1<<20)
	for i := range x {
		switch i % 3 {
		case 0:
			x[i] = 4 * rng.NormFloat64()
		case 1:
			x[i] = (2*rng.Float64() - 1) * 50
		default:
			x[i] = (2*rng.Float64() - 1) * 760
		}
	}
	got := make([]float64, len(x))
	for _, a := range []struct {
		name   string
		scalar func(float64) float64
		chosen func(dst, x []float64)
	}{{"ExpTo", math.Exp, ExpTo}, {"SigmoidTo", Sigmoid, SigmoidTo}, {"TanhTo", math.Tanh, TanhTo}} {
		a.chosen(got, x)
		for i, v := range x {
			if want := a.scalar(v); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("%s(%v) = %v (%#x), want %v (%#x)", a.name, v,
					got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
			}
		}
	}
}

// BenchmarkActivations times each activation 16 wide, the width of every
// GRU and Dense activation at bench scale, on the chosen path ("chosen":
// AVX2+FMA where it runs) and on the Go loop ("go").
func BenchmarkActivations(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, dst := make([]float64, 16), make([]float64, 16)
	for i := range x {
		x[i] = 2 * rng.NormFloat64()
	}
	for _, a := range []struct {
		name           string
		chosen, goLoop func(dst, x []float64)
	}{{"Exp", ExpTo, expGo}, {"Sigmoid", SigmoidTo, sigmoidGo}, {"Tanh", TanhTo, tanhGo}} {
		for _, path := range []struct {
			name string
			run  func(dst, x []float64)
		}{{"chosen", a.chosen}, {"go", a.goLoop}} {
			b.Run(fmt.Sprintf("%s/16/%s", a.name, path.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					path.run(dst, x)
				}
				benchSink = dst[0]
			})
		}
	}
}
