package baselines

import (
	"context"
	"errors"
	"math"
	"math/rand"

	"repro/internal/dp"
	"repro/internal/grid"
	"repro/internal/mat"
)

// errNoWindows is returned when a horizon is too short to train on.
var errNoWindows = errors.New("baselines: horizon too short to form training windows")

// WPO adapts Dvorkin & Botterud's wind power obfuscation (IEEE L-CSS
// 2023): the aggregate consumption series is perturbed with the Laplace
// mechanism at event level, and a convex least-squares program fits
// regression weights over a harmonic feature basis (the stand-in for their
// optimal-power-flow consistency constraints); the fitted model generates
// the synthetic release. The algorithm is geospatially blind — it operates
// on the map-wide aggregate and spreads it back uniformly — and
// event-level, so under user-level accounting its budget splits over every
// released timestamp. Both properties are why Figure 7 shows it trailing
// even Identity.
type WPO struct {
	// Harmonics is the number of sine/cosine pairs in the feature basis.
	Harmonics int
	// Period is the seasonality the basis models: 7 for day-granularity
	// data with a weekly cycle (the paper's release granularity), 24 for
	// hourly data. Zero picks 7.
	Period float64
}

// NewWPO returns the baseline with a weekly-cycle basis.
func NewWPO() *WPO { return &WPO{Harmonics: 4, Period: 7} }

// Name implements Algorithm.
func (*WPO) Name() string { return "wpo" }

// Release implements Algorithm.
func (w *WPO) Release(_ context.Context, in Input, epsilon float64, seed int64) (*grid.Matrix, error) {
	truth := in.Truth()
	lap := dp.NewLaplace(rand.New(rand.NewSource(seed)))
	T := truth.Ct
	period := w.Period
	if period <= 0 {
		period = 7
	}

	// Event-level design charged at user level: each of the T aggregate
	// readings costs ε/T; sensitivity of the map-wide aggregate at one
	// timestamp is one household's clipped reading.
	perStep := epsilon / float64(T)
	scale := dp.Scale(in.CellSensitivity, perStep)
	agg := make([]float64, T)
	for t := 0; t < T; t++ {
		var s float64
		for y := 0; y < truth.Cy; y++ {
			for x := 0; x < truth.Cx; x++ {
				s += truth.At(x, y, t)
			}
		}
		agg[t] = s + lap.Sample(scale)
	}

	// Convex program: least-squares regression of the noisy aggregate on
	// [1, t, sin/cos harmonics], solved via the normal equations (the
	// unconstrained KKT point of the quadratic program).
	nf := 2 + 2*w.Harmonics
	X := mat.New(T, nf)
	for t := 0; t < T; t++ {
		row := X.Row(t)
		row[0] = 1
		row[1] = float64(t) / float64(T)
		for h := 1; h <= w.Harmonics; h++ {
			ang := 2 * math.Pi * float64(h) * float64(t) / period
			row[2*h] = math.Sin(ang)
			row[2*h+1] = math.Cos(ang)
		}
	}
	weights, err := mat.LeastSquares(X, agg, 1e-8)
	if err != nil {
		return nil, err
	}
	fitted := X.MulVec(weights)

	// Spread each fitted aggregate uniformly over the grid (no geospatial
	// information — the core weakness the paper highlights).
	cells := float64(truth.Cx * truth.Cy)
	out := grid.NewMatrix(truth.Cx, truth.Cy, T)
	for t := 0; t < T; t++ {
		share := fitted[t] / cells
		if share < 0 {
			share = 0
		}
		for y := 0; y < truth.Cy; y++ {
			for x := 0; x < truth.Cx; x++ {
				out.Set(x, y, t, share)
			}
		}
	}
	return out, nil
}
