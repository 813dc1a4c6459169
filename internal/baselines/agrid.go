package baselines

import (
	"context"
	"math"
	"math/rand"

	"repro/internal/dp"
	"repro/internal/grid"
)

// AdaptiveGrid adapts Qardaji, Yang & Li's adaptive-grid method (ICDE
// 2013), which the paper's related work cites for granularity selection:
// instead of releasing every cell, the spatial domain is coarsened to an
// m x m grid with m chosen from the budget and the (noisily estimated)
// total mass, each coarse region's series is released with per-timestamp
// Laplace noise, and the coarse values are spread uniformly over their
// member cells. Larger budgets or denser data yield finer grids.
type AdaptiveGrid struct {
	// C is the calibration constant of the m = sqrt(N·ε/c)/2 rule;
	// zero defaults to the literature's c = 10.
	C float64
}

// NewAdaptiveGrid returns the baseline with the standard calibration.
func NewAdaptiveGrid() *AdaptiveGrid { return &AdaptiveGrid{C: 10} }

// Name implements Algorithm.
func (*AdaptiveGrid) Name() string { return "agrid" }

// Release implements Algorithm.
func (g *AdaptiveGrid) Release(_ context.Context, in Input, epsilon float64, seed int64) (*grid.Matrix, error) {
	truth := in.Truth()
	lap := dp.NewLaplace(rand.New(rand.NewSource(seed)))
	c := g.C
	if c <= 0 {
		c = 10
	}
	T := truth.Ct

	// Spend 10% of the budget estimating the population scale that drives
	// the granularity rule; 90% releases the coarse series.
	epsScale := 0.1 * epsilon
	epsRelease := epsilon - epsScale
	// Sensitivity of the total-mass probe: one household's whole series.
	mass := truth.Total() + lap.Sample(dp.Scale(in.CellSensitivity*float64(T), epsScale))
	units := math.Max(1, mass/(in.CellSensitivity*float64(T))) // ≈ households
	m := int(math.Sqrt(units*epsRelease/c) / 2)
	if m < 1 {
		m = 1
	}
	if m > truth.Cx {
		m = truth.Cx
	}
	if m > truth.Cy {
		m = truth.Cy
	}

	// Coarse regions: m x m tiling (ceiling block sizes cover the grid).
	bw := (truth.Cx + m - 1) / m
	bh := (truth.Cy + m - 1) / m
	perStep := epsRelease / float64(T)
	scale := dp.Scale(in.CellSensitivity, perStep)
	out := grid.NewMatrix(truth.Cx, truth.Cy, T)
	for by := 0; by < m; by++ {
		for bx := 0; bx < m; bx++ {
			x0, y0 := bx*bw, by*bh
			x1, y1 := min(x0+bw, truth.Cx), min(y0+bh, truth.Cy)
			if x0 >= x1 || y0 >= y1 {
				continue
			}
			cells := float64((x1 - x0) * (y1 - y0))
			for t := 0; t < T; t++ {
				var sum float64
				for y := y0; y < y1; y++ {
					for x := x0; x < x1; x++ {
						sum += truth.At(x, y, t)
					}
				}
				share := (sum + lap.Sample(scale)) / cells
				if share < 0 {
					share = 0
				}
				for y := y0; y < y1; y++ {
					for x := x0; x < x1; x++ {
						out.Set(x, y, t, share)
					}
				}
			}
		}
	}
	return out, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
