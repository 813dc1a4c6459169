package baselines

import (
	"context"
	"math/rand"

	"repro/internal/dp"
	"repro/internal/grid"
)

// Identity is the Section 3.3 strategy: independent Laplace noise on every
// cell, with the budget split evenly over time slices (sequential
// composition) and reused across cells within a slice (parallel
// composition).
type Identity struct{}

// NewIdentity returns the Identity baseline.
func NewIdentity() *Identity { return &Identity{} }

// Name implements Algorithm.
func (*Identity) Name() string { return "identity" }

// Release implements Algorithm.
func (*Identity) Release(_ context.Context, in Input, epsilon float64, seed int64) (*grid.Matrix, error) {
	truth := in.Truth()
	lap := dp.NewLaplace(rand.New(rand.NewSource(seed)))
	perSlice := epsilon / float64(truth.Ct)
	scale := dp.Scale(in.CellSensitivity, perSlice)
	out := truth.Clone()
	data := out.Data()
	for i := range data {
		data[i] += lap.Sample(scale)
	}
	clampNonNegative(out)
	return out, nil
}
