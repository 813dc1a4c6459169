package timeseries

import (
	"fmt"
	"math"
)

// MAE returns the mean absolute error between equal-length slices.
func MAE(truth, pred []float64) float64 {
	checkPair(truth, pred)
	if len(truth) == 0 {
		return 0
	}
	var s float64
	for i := range truth {
		s += math.Abs(truth[i] - pred[i])
	}
	return s / float64(len(truth))
}

// RMSE returns the root mean squared error between equal-length slices.
func RMSE(truth, pred []float64) float64 {
	checkPair(truth, pred)
	if len(truth) == 0 {
		return 0
	}
	var s float64
	for i := range truth {
		d := truth[i] - pred[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(truth)))
}

// MREFloor guards the MRE denominator: queries whose true answer is below
// the floor are evaluated against the floor, the standard convention for
// relative error over sparse spatial data (otherwise empty regions make
// the metric unbounded).
const MREFloor = 1e-9

// MRE returns the mean relative error |p - p̄|/max(p, floor) × 100 of
// Eq. 5 for a single query.
func MRE(truth, noisy, floor float64) float64 {
	if floor <= 0 {
		floor = MREFloor
	}
	den := math.Abs(truth)
	if den < floor {
		den = floor
	}
	return math.Abs(truth-noisy) / den * 100
}

func checkPair(a, b []float64) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("timeseries: metric length mismatch %d vs %d", len(a), len(b)))
	}
}
