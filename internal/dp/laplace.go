// Package dp implements the differential-privacy primitives used throughout
// the library: the Laplace mechanism, a hardened sampler for release-grade
// noise, and a budget accountant modelling sequential and parallel
// composition (Theorems 1 and 2 of the paper).
package dp

import (
	"fmt"
	"math"
	"math/rand"
)

// Laplace draws Laplace(0, b) noise from a seedable PRNG. It is the
// reproducible sampler used in experiments; for release-grade noise see
// SecureLaplace in secure.go.
type Laplace struct {
	rng *rand.Rand
}

// NewLaplace returns a Laplace sampler backed by rng. rng must not be nil.
func NewLaplace(rng *rand.Rand) *Laplace {
	if rng == nil {
		panic("dp: nil rng")
	}
	return &Laplace{rng: rng}
}

// Sample returns one draw from Laplace(0, scale). scale must be positive.
func (l *Laplace) Sample(scale float64) float64 {
	if scale <= 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		panic(fmt.Sprintf("dp: invalid Laplace scale %v", scale))
	}
	// Inverse CDF: x = -b·sign(u)·ln(1-2|u|) with u ∈ (-1/2, 1/2). Float64
	// draws from [0, 1), so a 0 (which would make u = -1/2 and x = -Inf) is
	// redrawn; every other draw is used as is.
	f := l.rng.Float64()
	for f == 0 {
		f = l.rng.Float64()
	}
	u := f - 0.5
	if u >= 0 {
		return -scale * math.Log(1-2*u)
	}
	return scale * math.Log(1+2*u)
}

// Perturb returns value + Laplace(sensitivity/epsilon) noise, the standard
// ε-DP Laplace mechanism for a query with the given L1 sensitivity.
func (l *Laplace) Perturb(value, sensitivity, epsilon float64) float64 {
	return value + l.Sample(Scale(sensitivity, epsilon))
}

// Scale returns the Laplace scale b = sensitivity/epsilon, validating both
// arguments.
func Scale(sensitivity, epsilon float64) float64 {
	if sensitivity < 0 || math.IsNaN(sensitivity) {
		panic(fmt.Sprintf("dp: invalid sensitivity %v", sensitivity))
	}
	if epsilon <= 0 || math.IsNaN(epsilon) {
		panic(fmt.Sprintf("dp: invalid epsilon %v", epsilon))
	}
	return sensitivity / epsilon
}

// LaplaceVariance returns the variance 2b² of Laplace noise with the given
// sensitivity and budget; used by the Theorem-8 budget allocator.
func LaplaceVariance(sensitivity, epsilon float64) float64 {
	b := Scale(sensitivity, epsilon)
	return 2 * b * b
}
