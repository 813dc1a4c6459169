// Package baselines implements the six comparison algorithms of Section 5:
// Identity (per-cell Laplace), FAST (Kalman-filtered adaptive sampling),
// the Fourier perturbation algorithm FPA-k, the Haar wavelet perturbation
// algorithm, LGAN-DP (an LSTM GAN with a noisy objective) and WPO
// (event-level Laplace plus convex regression). All of them sanitise the
// released horizon of the consumption matrix under user-level privacy: the
// total budget is divided over the time axis (sequential composition),
// while disjoint spatial cells share each slice's budget (parallel
// composition, Theorem 5).
package baselines

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/grid"
	"repro/internal/resilience"
	"repro/internal/timeseries"
)

// Input bundles what every baseline consumes: the dataset, the train/release
// split and the per-cell sensitivity bound.
type Input struct {
	Dataset *timeseries.Dataset
	// TTrain readings are a non-released prefix (kept for algorithms that
	// want history); the release covers [TTrain, T).
	TTrain int
	// CellSensitivity bounds one household's contribution to one cell at
	// one timestamp (the clipped maximum reading).
	CellSensitivity float64
}

// Truth returns the non-private consumption matrix over the horizon.
func (in Input) Truth() *grid.Matrix {
	d := in.Dataset
	horizon := d.T() - in.TTrain
	if horizon <= 0 {
		panic(fmt.Sprintf("baselines: no horizon (T=%d, TTrain=%d)", d.T(), in.TTrain))
	}
	return grid.FromDataset(d, in.TTrain, d.T())
}

// Algorithm is one DP release mechanism.
type Algorithm interface {
	Name() string
	// Release produces an epsilon-DP (user-level) version of the horizon
	// consumption matrix. Iterative algorithms (LGAN-DP) check ctx while
	// they run; the rest ignore it.
	Release(ctx context.Context, in Input, epsilon float64, seed int64) (*grid.Matrix, error)
}

// Registry returns every implemented baseline, in the paper's order. The
// Fourier and Wavelet entries appear with k = 10 and k = 20 as in Figure 6.
func Registry() []Algorithm {
	return []Algorithm{
		NewIdentity(),
		NewFAST(),
		NewFourier(10),
		NewFourier(20),
		NewWavelet(10),
		NewWavelet(20),
		NewLGANDP(),
	}
}

// Extended returns additional algorithms beyond the paper's Figure-6
// suite: WPO (Figure 7), plus the AR(1) correlated-release, adaptive-grid
// and HTF methods from the related-work discussion.
func Extended() []Algorithm {
	return []Algorithm{NewWPO(), NewAR1(), NewAdaptiveGrid(), NewHTF()}
}

// Names returns the sorted names of every registered algorithm (Figure-6
// registry plus the extended set). Usage strings should derive from this
// so they cannot drift from the registry.
func Names() []string {
	all := append(Registry(), Extended()...)
	names := make([]string, 0, len(all))
	for _, a := range all {
		names = append(names, a.Name())
	}
	sort.Strings(names)
	return names
}

// Lookup finds a baseline by name, searching the Figure-6 registry and
// the extended set.
func Lookup(name string) (Algorithm, error) {
	for _, a := range append(Registry(), Extended()...) {
		if a.Name() == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("baselines: unknown algorithm %q (have %v)", name, Names())
}

// ReleaseContext releases via a, honouring the context and the
// resilience fault-injection point FaultRelease (payload: the algorithm
// name). The context is checked before and after the release and passed
// to a.Release for the algorithms that also check it in flight.
func ReleaseContext(ctx context.Context, a Algorithm, in Input, epsilon float64, seed int64) (*grid.Matrix, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := resilience.Fire(ctx, resilience.FaultRelease, a.Name()); err != nil {
		return nil, fmt.Errorf("baselines: %s release: %w", a.Name(), err)
	}
	m, err := a.Release(ctx, in, epsilon, seed)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

// clampNonNegative zeroes negative cells in place — valid post-processing,
// since consumption is non-negative.
func clampNonNegative(m *grid.Matrix) {
	d := m.Data()
	for i, v := range d {
		if v < 0 {
			d[i] = 0
		}
	}
}
