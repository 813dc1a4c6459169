package baselines

import (
	"context"
	"math"
	"math/rand"

	"repro/internal/dp"
	"repro/internal/grid"
)

// FAST is the adaptive-sampling framework of Fan & Xiong (TKDE 2014):
// instead of perturbing every timestamp, it samples a subset, spends the
// per-sample budget ε/M on each sampled reading, and runs a scalar Kalman
// filter whose prediction fills the gaps. A PID controller widens the
// sampling interval while the filter tracks well and narrows it when the
// feedback error grows.
type FAST struct {
	// MaxSamples caps the number of sampled timestamps M per pillar; 0
	// defaults to half the horizon.
	MaxSamples int
	// ProcessVar is the Kalman process noise Q.
	ProcessVar float64
	// PID gains (defaults follow the FAST paper's Cp=0.9, Ci=0.1, Cd=0).
	Cp, Ci, Cd float64
	// Theta is the PID set point for the relative feedback error.
	Theta float64
}

// NewFAST returns FAST with the paper-default controller gains.
func NewFAST() *FAST {
	return &FAST{ProcessVar: 1e-3, Cp: 0.9, Ci: 0.1, Cd: 0, Theta: 0.1}
}

// Name implements Algorithm.
func (*FAST) Name() string { return "fast" }

// Release implements Algorithm.
func (f *FAST) Release(_ context.Context, in Input, epsilon float64, seed int64) (*grid.Matrix, error) {
	truth := in.Truth()
	lap := dp.NewLaplace(rand.New(rand.NewSource(seed)))
	T := truth.Ct
	m := f.MaxSamples
	if m <= 0 {
		m = (T + 1) / 2
	}
	if m > T {
		m = T
	}
	epsSample := epsilon / float64(m)
	b := dp.Scale(in.CellSensitivity, epsSample)
	R := 2 * b * b // Laplace variance as Gaussian measurement noise
	out := grid.NewMatrix(truth.Cx, truth.Cy, T)
	for y := 0; y < truth.Cy; y++ {
		for x := 0; x < truth.Cx; x++ {
			series := truth.Pillar(x, y)
			out.SetPillar(x, y, f.filterSeries(series, m, b, R, lap))
		}
	}
	clampNonNegative(out)
	return out, nil
}

// filterSeries runs sampling + Kalman filtering over one pillar.
func (f *FAST) filterSeries(series []float64, maxSamples int, b, R float64, lap *dp.Laplace) []float64 {
	T := len(series)
	out := make([]float64, T)
	// Kalman state: estimate xe with variance P.
	xe := 0.0
	P := R // uninformative start
	interval := 1.0
	nextSample := 0.0
	used := 0
	var integral, prevErr float64
	q := f.ProcessVar * math.Max(1, b*b)
	for t := 0; t < T; t++ {
		// Predict.
		P += q
		if float64(t) >= nextSample && used < maxSamples {
			z := series[t] + lap.Sample(b)
			used++
			// Update.
			K := P / (P + R)
			innov := z - xe
			xe += K * innov
			P *= 1 - K
			// PID feedback on the relative innovation.
			den := math.Max(math.Abs(z), 1)
			e := math.Abs(innov) / den
			integral += e
			deriv := e - prevErr
			prevErr = e
			pid := f.Cp*e + f.Ci*integral/float64(used) + f.Cd*deriv
			// Error above the set point shrinks the interval, below grows it.
			adj := f.Theta - pid
			interval = math.Max(1, interval+adj*interval)
			nextSample = float64(t) + interval
		}
		out[t] = xe
	}
	return out
}
