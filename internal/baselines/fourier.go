package baselines

import (
	"context"
	"math"
	"math/cmplx"
	"math/rand"

	"repro/internal/dp"
	"repro/internal/grid"
)

// Fourier is the Fourier Perturbation Algorithm FPA-k of Rastogi & Nath
// (SIGMOD 2010) with the sensitivity treatment of Leukam Lako et al. Both
// works — like all the electricity baselines the paper surveys in §6 —
// sanitise "the information of a single consumer independently from
// others": each household's clipped series is DFT-transformed, the first
// K coefficients are perturbed with Laplace noise λ = √K·Δ₂/ε (Δ₂ ≤
// clip·√T, the L2 norm of one user's whole series under user-level
// privacy), the rest are dropped, and the sanitised household series are
// aggregated into the consumption matrix. Households are disjoint, so
// each spends the full budget (parallel composition); the per-household
// truncation error and the √(households) noise growth per cell are what
// the mechanism trades for its compact representation.
type Fourier struct {
	K int
}

// NewFourier returns FPA with the given number of retained coefficients.
func NewFourier(k int) *Fourier { return &Fourier{K: k} }

// Name implements Algorithm.
func (f *Fourier) Name() string {
	if f.K == 10 {
		return "fourier-10"
	}
	if f.K == 20 {
		return "fourier-20"
	}
	return "fourier"
}

// Release implements Algorithm.
func (f *Fourier) Release(_ context.Context, in Input, epsilon float64, seed int64) (*grid.Matrix, error) {
	d := in.Dataset
	T := d.T() - in.TTrain
	if T <= 0 {
		return nil, errNoWindows
	}
	lap := dp.NewLaplace(rand.New(rand.NewSource(seed)))
	k := f.K
	if k > T {
		k = T
	}
	// User-level L2 sensitivity of one household's series: removing the
	// user zeroes all T clipped readings, so Δ₂ ≤ clip·√T.
	l2 := in.CellSensitivity * math.Sqrt(float64(T))
	// FPA-k: λ = √k·Δ₂/ε per retained coefficient.
	scale := dp.Scale(math.Sqrt(float64(k))*l2, epsilon)
	out := grid.NewMatrix(d.Cx, d.Cy, T)
	series := make([]float64, T)
	for _, s := range d.Series {
		for t := 0; t < T; t++ {
			series[t] = math.Min(s.Values[in.TTrain+t], in.CellSensitivity)
		}
		coef := DFT(series)
		kept := make([]complex128, len(coef))
		for i := 0; i < k; i++ {
			kept[i] = coef[i] + complex(lap.Sample(scale), lap.Sample(scale))
		}
		rec := InverseDFT(kept)
		for t, v := range rec {
			out.AddAt(s.Location.X, s.Location.Y, t, v)
		}
	}
	clampNonNegative(out)
	return out, nil
}

// DFT computes the discrete Fourier transform of a real series. It uses
// an iterative radix-2 FFT when the length is a power of two and the
// O(n²) direct transform otherwise (horizons in this work are short).
func DFT(x []float64) []complex128 {
	n := len(x)
	c := make([]complex128, n)
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	return fftInPlace(c, false)
}

// InverseDFT reconstructs a real series from coefficients (imaginary
// residue discarded).
func InverseDFT(c []complex128) []float64 {
	n := len(c)
	work := make([]complex128, n)
	copy(work, c)
	out := fftInPlace(work, true)
	res := make([]float64, n)
	for i, v := range out {
		res[i] = real(v) / float64(n)
	}
	return res
}

func fftInPlace(c []complex128, inverse bool) []complex128 {
	n := len(c)
	if n == 0 {
		return c
	}
	if n&(n-1) != 0 {
		return dftDirect(c, inverse)
	}
	// Bit-reversal permutation.
	for i, j := 0, 0; i < n; i++ {
		if i < j {
			c[i], c[j] = c[j], c[i]
		}
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for length := 2; length <= n; length <<= 1 {
		ang := sign * 2 * math.Pi / float64(length)
		wl := cmplx.Exp(complex(0, ang))
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			for j := 0; j < length/2; j++ {
				u := c[i+j]
				v := c[i+j+length/2] * w
				c[i+j] = u + v
				c[i+j+length/2] = u - v
				w *= wl
			}
		}
	}
	return c
}

func dftDirect(c []complex128, inverse bool) []complex128 {
	n := len(c)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	out := make([]complex128, n)
	for kk := 0; kk < n; kk++ {
		var sum complex128
		for t := 0; t < n; t++ {
			ang := sign * 2 * math.Pi * float64(kk) * float64(t) / float64(n)
			sum += c[t] * cmplx.Exp(complex(0, ang))
		}
		out[kk] = sum
	}
	return out
}
