package baselines

import (
	"context"
	"math"
	"math/rand"

	"repro/internal/dp"
	"repro/internal/grid"
)

// Wavelet is the discrete Haar wavelet perturbation algorithm of Lyu et
// al. — like the cited work, a per-meter mechanism: each household's
// clipped series is transformed with the orthonormal Haar wavelet, the K
// coarsest coefficients are retained and Laplace-perturbed (the transform
// is orthonormal, so the user-level L2 sensitivity carries over
// unchanged), the inverse transform reconstructs the household's series,
// and the sanitised series are aggregated into the consumption matrix.
type Wavelet struct {
	K int
}

// NewWavelet returns the Haar perturbation algorithm keeping k coefficients.
func NewWavelet(k int) *Wavelet { return &Wavelet{K: k} }

// Name implements Algorithm.
func (w *Wavelet) Name() string {
	if w.K == 10 {
		return "wavelet-10"
	}
	if w.K == 20 {
		return "wavelet-20"
	}
	return "wavelet"
}

// Release implements Algorithm.
func (w *Wavelet) Release(_ context.Context, in Input, epsilon float64, seed int64) (*grid.Matrix, error) {
	d := in.Dataset
	T := d.T() - in.TTrain
	if T <= 0 {
		return nil, errNoWindows
	}
	lap := dp.NewLaplace(rand.New(rand.NewSource(seed)))
	padded := nextPow2(T)
	k := w.K
	if k > padded {
		k = padded
	}
	l2 := in.CellSensitivity * math.Sqrt(float64(T))
	scale := dp.Scale(math.Sqrt(float64(k))*l2, epsilon)
	out := grid.NewMatrix(d.Cx, d.Cy, T)
	buf := make([]float64, padded)
	for _, s := range d.Series {
		for t := 0; t < padded; t++ {
			if t < T {
				buf[t] = math.Min(s.Values[in.TTrain+t], in.CellSensitivity)
			} else {
				buf[t] = 0
			}
		}
		coef := HaarTransform(buf)
		// Coefficients are ordered coarse-to-fine; keep the first k.
		for i := range coef {
			if i < k {
				coef[i] += lap.Sample(scale)
			} else {
				coef[i] = 0
			}
		}
		rec := InverseHaar(coef)
		for t := 0; t < T; t++ {
			out.AddAt(s.Location.X, s.Location.Y, t, rec[t])
		}
	}
	clampNonNegative(out)
	return out, nil
}

// HaarTransform computes the orthonormal Haar wavelet transform of a
// power-of-two-length series. Output ordering: [smooth, detail_coarsest,
// ..., detail_finest].
func HaarTransform(x []float64) []float64 {
	n := len(x)
	if n&(n-1) != 0 {
		panic("baselines: Haar transform needs power-of-two length")
	}
	out := make([]float64, n)
	copy(out, x)
	tmp := make([]float64, n)
	for length := n; length > 1; length /= 2 {
		half := length / 2
		for i := 0; i < half; i++ {
			tmp[i] = (out[2*i] + out[2*i+1]) / math.Sqrt2
			tmp[half+i] = (out[2*i] - out[2*i+1]) / math.Sqrt2
		}
		copy(out[:length], tmp[:length])
	}
	return out
}

// InverseHaar inverts HaarTransform.
func InverseHaar(c []float64) []float64 {
	n := len(c)
	if n&(n-1) != 0 {
		panic("baselines: inverse Haar needs power-of-two length")
	}
	out := make([]float64, n)
	copy(out, c)
	tmp := make([]float64, n)
	for length := 2; length <= n; length *= 2 {
		half := length / 2
		for i := 0; i < half; i++ {
			tmp[2*i] = (out[i] + out[half+i]) / math.Sqrt2
			tmp[2*i+1] = (out[i] - out[half+i]) / math.Sqrt2
		}
		copy(out[:length], tmp[:length])
	}
	return out
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
