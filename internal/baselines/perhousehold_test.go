package baselines

import (
	"context"
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/timeseries"
)

// singleHouseholdInput places exactly one household so the per-household
// semantics of the transform baselines are directly observable.
func singleHouseholdInput(T int) Input {
	vals := make([]float64, T)
	for t := range vals {
		vals[t] = 1 + 0.5*math.Sin(2*math.Pi*float64(t)/7)
	}
	d := &timeseries.Dataset{Cx: 4, Cy: 4, Series: []*timeseries.Series{
		{Location: timeseries.Location{X: 2, Y: 1}, Values: vals},
	}}
	return Input{Dataset: d, TTrain: 0, CellSensitivity: 3}
}

// releaseMassOutsideCell sums the released mass in cells with no household.
func releaseMassOutsideCell(rel *grid.Matrix, x, y int) float64 {
	var outside float64
	for t := 0; t < rel.Ct; t++ {
		for yy := 0; yy < rel.Cy; yy++ {
			for xx := 0; xx < rel.Cx; xx++ {
				if xx == x && yy == y {
					continue
				}
				outside += rel.At(xx, yy, t)
			}
		}
	}
	return outside
}

func TestFourierReleasesOnlyAtHouseholdCells(t *testing.T) {
	in := singleHouseholdInput(28)
	rel, err := NewFourier(10).Release(context.Background(), in, 1e5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := releaseMassOutsideCell(rel, 2, 1); got != 0 {
		t.Fatalf("per-household Fourier leaked %v outside the household's cell", got)
	}
	// With an enormous budget the household's own series reconstructs
	// accurately up to truncation of the higher harmonics.
	truth := in.Truth()
	var err1, mass float64
	for tt := 0; tt < rel.Ct; tt++ {
		err1 += math.Abs(rel.At(2, 1, tt) - truth.At(2, 1, tt))
		mass += truth.At(2, 1, tt)
	}
	if err1 > 0.35*mass {
		t.Fatalf("reconstruction error %v too large vs mass %v", err1, mass)
	}
}

func TestWaveletReleasesOnlyAtHouseholdCells(t *testing.T) {
	in := singleHouseholdInput(28)
	rel, err := NewWavelet(10).Release(context.Background(), in, 1e5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := releaseMassOutsideCell(rel, 2, 1); got != 0 {
		t.Fatalf("per-household Wavelet leaked %v outside the household's cell", got)
	}
}

func TestTransformBaselinesClipBeforeTransform(t *testing.T) {
	// A reading far above CellSensitivity must influence the release by at
	// most the clip ceiling — verify via two inputs that differ only above
	// the clip, producing identical releases for the same seed.
	mk := func(spike float64) Input {
		vals := make([]float64, 16)
		for t := range vals {
			vals[t] = 1
		}
		vals[3] = spike
		d := &timeseries.Dataset{Cx: 2, Cy: 2, Series: []*timeseries.Series{
			{Location: timeseries.Location{X: 0, Y: 0}, Values: vals},
		}}
		return Input{Dataset: d, TTrain: 0, CellSensitivity: 2}
	}
	for _, alg := range []Algorithm{NewFourier(5), NewWavelet(5)} {
		a, err := alg.Release(context.Background(), mk(50), 10, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := alg.Release(context.Background(), mk(500), 10, 7)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Data() {
			if a.Data()[i] != b.Data()[i] {
				t.Fatalf("%s: clipping not applied before transform", alg.Name())
			}
		}
	}
}

func TestTransformBaselinesRejectEmptyHorizon(t *testing.T) {
	in := singleHouseholdInput(10)
	in.TTrain = 10
	if _, err := NewFourier(5).Release(context.Background(), in, 1, 1); err == nil {
		t.Fatal("fourier should reject empty horizon")
	}
	if _, err := NewWavelet(5).Release(context.Background(), in, 1, 1); err == nil {
		t.Fatal("wavelet should reject empty horizon")
	}
}
