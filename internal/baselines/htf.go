package baselines

import (
	"context"
	"math"
	"math/rand"

	"repro/internal/dp"
	"repro/internal/grid"
)

// HTF adapts the Homogeneous Tree Framework of Shaham et al. (SIGSPATIAL
// 2021) — the authors' prior work the paper builds on — to the 3-D
// consumption matrix: the volume is recursively split by axis-aligned
// cuts chosen to balance mass (a noisy-median proxy for HTF's
// homogeneity objective), and the resulting leaf boxes are released with
// Laplace-sanitised sums spread uniformly. Unlike STPT it needs no
// learned pattern: the partition structure itself is bought with a slice
// of the budget.
type HTF struct {
	// MaxDepth bounds the splitting recursion (up to 2^MaxDepth leaves).
	// Zero defaults to 9 (≤512 leaves).
	MaxDepth int
	// PartitionShare is the fraction of ε spent on split decisions; the
	// rest releases leaf sums. Zero defaults to 0.3 (the HTF paper's
	// guidance of a minority share for structure).
	PartitionShare float64
}

// NewHTF returns the baseline with literature defaults.
func NewHTF() *HTF { return &HTF{MaxDepth: 9, PartitionShare: 0.3} }

// Name implements Algorithm.
func (*HTF) Name() string { return "htf" }

type htfBox struct {
	x0, x1, y0, y1, t0, t1 int // inclusive
}

func (b htfBox) cells() int {
	return (b.x1 - b.x0 + 1) * (b.y1 - b.y0 + 1) * (b.t1 - b.t0 + 1)
}

// Release implements Algorithm.
func (h *HTF) Release(_ context.Context, in Input, epsilon float64, seed int64) (*grid.Matrix, error) {
	truth := in.Truth()
	depth := h.MaxDepth
	if depth <= 0 {
		depth = 9
	}
	share := h.PartitionShare
	if share <= 0 || share >= 1 {
		share = 0.3
	}
	lap := dp.NewLaplace(rand.New(rand.NewSource(seed)))
	epsSplit := share * epsilon
	epsData := epsilon - epsSplit
	ps := grid.NewPrefixSum(truth)

	// Recursive mass-balancing splits. Each level's decisions touch
	// disjoint boxes (parallel composition), so every level spends
	// epsSplit/depth; the split statistic is a box-half sum with
	// sensitivity = one user's pillar mass inside the box.
	perLevel := epsSplit / float64(depth)
	boxes := []htfBox{{0, truth.Cx - 1, 0, truth.Cy - 1, 0, truth.Ct - 1}}
	for level := 0; level < depth; level++ {
		var next []htfBox
		for _, b := range boxes {
			child1, child2, ok := h.split(b, ps, lap, perLevel, in.CellSensitivity)
			if !ok {
				next = append(next, b)
				continue
			}
			next = append(next, child1, child2)
		}
		boxes = next
	}

	// Release leaf sums with Theorem-8-style allocation over the leaves'
	// pillar sensitivities.
	sens := make([]float64, len(boxes))
	for i, b := range boxes {
		sens[i] = float64(b.t1-b.t0+1) * in.CellSensitivity
	}
	budgets := dp.AllocateOptimal(sens, epsData)
	out := grid.NewMatrix(truth.Cx, truth.Cy, truth.Ct)
	for i, b := range boxes {
		q := grid.Query{X0: b.x0, X1: b.x1, Y0: b.y0, Y1: b.y1, T0: b.t0, T1: b.t1}
		noisy := ps.RangeSum(q) + lap.Sample(dp.Scale(sens[i], budgets[i]))
		val := noisy / float64(b.cells())
		if val < 0 {
			val = 0
		}
		for t := b.t0; t <= b.t1; t++ {
			for y := b.y0; y <= b.y1; y++ {
				for x := b.x0; x <= b.x1; x++ {
					out.Set(x, y, t, val)
				}
			}
		}
	}
	return out, nil
}

// split cuts the box on its longest axis at the noisy mass median.
// It returns ok=false when the box is a single cell.
func (h *HTF) split(b htfBox, ps *grid.PrefixSum, lap *dp.Laplace, eps, clip float64) (htfBox, htfBox, bool) {
	dx, dy, dt := b.x1-b.x0, b.y1-b.y0, b.t1-b.t0
	if dx == 0 && dy == 0 && dt == 0 {
		return htfBox{}, htfBox{}, false
	}
	// Sensitivity of a half-box sum: one user's pillar inside the box.
	sens := float64(dt+1) * clip
	half := func(q grid.Query) float64 {
		return ps.RangeSum(q) + lap.Sample(dp.Scale(sens, eps))
	}
	total := half(grid.Query{X0: b.x0, X1: b.x1, Y0: b.y0, Y1: b.y1, T0: b.t0, T1: b.t1})

	type axis struct {
		length int
		cut    func(at int) (htfBox, htfBox)
		sum    func(at int) float64
	}
	axes := []axis{
		{dx, func(at int) (htfBox, htfBox) {
			return htfBox{b.x0, at, b.y0, b.y1, b.t0, b.t1}, htfBox{at + 1, b.x1, b.y0, b.y1, b.t0, b.t1}
		}, func(at int) float64 {
			return half(grid.Query{X0: b.x0, X1: at, Y0: b.y0, Y1: b.y1, T0: b.t0, T1: b.t1})
		}},
		{dy, func(at int) (htfBox, htfBox) {
			return htfBox{b.x0, b.x1, b.y0, at, b.t0, b.t1}, htfBox{b.x0, b.x1, at + 1, b.y1, b.t0, b.t1}
		}, func(at int) float64 {
			return half(grid.Query{X0: b.x0, X1: b.x1, Y0: b.y0, Y1: at, T0: b.t0, T1: b.t1})
		}},
		{dt, func(at int) (htfBox, htfBox) {
			return htfBox{b.x0, b.x1, b.y0, b.y1, b.t0, at}, htfBox{b.x0, b.x1, b.y0, b.y1, at + 1, b.t1}
		}, func(at int) float64 {
			return half(grid.Query{X0: b.x0, X1: b.x1, Y0: b.y0, Y1: b.y1, T0: b.t0, T1: at})
		}},
	}
	// Longest axis wins; starts at the axis' low coordinate.
	best := 0
	for i := 1; i < 3; i++ {
		if axes[i].length > axes[best].length {
			best = i
		}
	}
	a := axes[best]
	var lo int
	switch best {
	case 0:
		lo = b.x0
	case 1:
		lo = b.y0
	default:
		lo = b.t0
	}
	// Binary search the cut whose noisy left mass is closest to half.
	target := total / 2
	bestAt, bestDiff := lo, math.Inf(1)
	loI, hiI := lo, lo+a.length-1
	for loI <= hiI {
		mid := (loI + hiI) / 2
		left := a.sum(mid)
		if d := math.Abs(left - target); d < bestDiff {
			bestDiff = d
			bestAt = mid
		}
		if left < target {
			loI = mid + 1
		} else {
			hiI = mid - 1
		}
	}
	c1, c2 := a.cut(bestAt)
	return c1, c2, true
}
