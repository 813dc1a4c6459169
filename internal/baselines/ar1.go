package baselines

import (
	"context"
	"math"
	"math/rand"

	"repro/internal/dp"
	"repro/internal/grid"
)

// AR1 implements the correlated-release approach of Zhang, Khalili & Liu
// (ACM TOPS 2022), which the paper's related work surveys: temporal
// correlations are modelled as a first-order autoregressive process, and
// each released value is the Bayesian combination of the AR(1) prediction
// from the previous release with the fresh Laplace-perturbed observation.
// Unlike FAST it releases every timestamp (no sampling), relying on the
// correlation model to filter noise; the per-timestamp budget is ε/T and
// disjoint pillars compose in parallel.
type AR1 struct {
	// Rho is the assumed autoregressive coefficient of the underlying
	// series; the posterior weight adapts to it. Zero defaults to 0.9
	// (strong day-to-day persistence).
	Rho float64
}

// NewAR1 returns the baseline with the default persistence coefficient.
func NewAR1() *AR1 { return &AR1{Rho: 0.9} }

// Name implements Algorithm.
func (*AR1) Name() string { return "ar1" }

// Release implements Algorithm.
func (a *AR1) Release(_ context.Context, in Input, epsilon float64, seed int64) (*grid.Matrix, error) {
	truth := in.Truth()
	rho := a.Rho
	if rho <= 0 || rho >= 1 {
		rho = 0.9
	}
	lap := dp.NewLaplace(rand.New(rand.NewSource(seed)))
	T := truth.Ct
	perStep := epsilon / float64(T)
	b := dp.Scale(in.CellSensitivity, perStep)
	noiseVar := 2 * b * b
	out := grid.NewMatrix(truth.Cx, truth.Cy, T)
	for y := 0; y < truth.Cy; y++ {
		for x := 0; x < truth.Cx; x++ {
			series := truth.Pillar(x, y)
			// Process variance estimated from the noisy first differences
			// (post-processing of the DP observations).
			noisy := make([]float64, T)
			for t := 0; t < T; t++ {
				noisy[t] = series[t] + lap.Sample(b)
			}
			var diffVar float64
			for t := 1; t < T; t++ {
				d := noisy[t] - rho*noisy[t-1]
				diffVar += d * d
			}
			if T > 1 {
				diffVar /= float64(T - 1)
			}
			processVar := math.Max(1e-9, diffVar-(1+rho*rho)*noiseVar)

			// Forward pass: posterior mean of x_t given the AR(1) prior
			// from the previous estimate and the fresh noisy observation.
			est := noisy[0]
			estVar := noiseVar
			out.Set(x, y, 0, math.Max(0, est))
			for t := 1; t < T; t++ {
				priorMean := rho * est
				priorVar := rho*rho*estVar + processVar
				k := priorVar / (priorVar + noiseVar)
				est = priorMean + k*(noisy[t]-priorMean)
				estVar = (1 - k) * priorVar
				out.Set(x, y, t, math.Max(0, est))
			}
		}
	}
	return out, nil
}
