package timeseries

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func twoHouseholdDataset() *Dataset {
	return &Dataset{
		Name: "test", Cx: 4, Cy: 4,
		Series: []*Series{
			{Location: Location{0, 0}, Values: []float64{1, 2, 3}},
			{Location: Location{3, 2}, Values: []float64{4, 5, 6}},
		},
	}
}

func TestValidateAcceptsGood(t *testing.T) {
	if err := twoHouseholdDataset().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBad(t *testing.T) {
	cases := map[string]*Dataset{
		"empty":    {Cx: 4, Cy: 4},
		"bad grid": {Cx: 0, Cy: 4, Series: []*Series{{Values: []float64{1}}}},
		"ragged":   {Cx: 4, Cy: 4, Series: []*Series{{Values: []float64{1, 2}}, {Values: []float64{1}}}},
		"oob x":    {Cx: 4, Cy: 4, Series: []*Series{{Location: Location{4, 0}, Values: []float64{1}}}},
		"neg y":    {Cx: 4, Cy: 4, Series: []*Series{{Location: Location{0, -1}, Values: []float64{1}}}},
	}
	for name, d := range cases {
		if err := d.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	d := twoHouseholdDataset()
	c := d.Clone()
	c.Series[0].Values[0] = 99
	if d.Series[0].Values[0] == 99 {
		t.Fatal("Clone shares storage")
	}
}

func TestGlobalMinMax(t *testing.T) {
	d := twoHouseholdDataset()
	min, max := d.GlobalMinMax()
	if min != 1 || max != 6 {
		t.Fatalf("MinMax = %v,%v", min, max)
	}
}

func TestGlobalMinMaxWorkersMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := &Dataset{Cx: 8, Cy: 8}
	for i := 0; i < 23; i++ {
		s := &Series{Location: Location{X: i % 8, Y: (i / 8) % 8}, Values: make([]float64, 17)}
		for j := range s.Values {
			s.Values[j] = rng.NormFloat64() * 10
		}
		d.Series = append(d.Series, s)
	}
	wantMin, wantMax := d.GlobalMinMax()
	for _, workers := range []int{0, 1, 2, 3, 7, 50} {
		min, max := d.GlobalMinMaxWorkers(workers)
		if min != wantMin || max != wantMax {
			t.Fatalf("workers=%d: (%v,%v), want (%v,%v)", workers, min, max, wantMin, wantMax)
		}
		n := FitNormalizerWorkers(d, workers)
		if n.Min != wantMin || n.Max != wantMax {
			t.Fatalf("workers=%d: normalizer (%v,%v)", workers, n.Min, n.Max)
		}
	}
}

func TestNormalizerRoundTrip(t *testing.T) {
	d := twoHouseholdDataset()
	n := FitNormalizerWorkers(d, 1)
	norm := n.Apply(d)
	// All values must land in [0,1], extremes at the bounds.
	if norm.Series[0].Values[0] != 0 || norm.Series[1].Values[2] != 1 {
		t.Fatalf("normalised extremes wrong: %v %v", norm.Series[0].Values, norm.Series[1].Values)
	}
	for _, s := range norm.Series {
		for i, v := range s.Values {
			if v < 0 || v > 1 {
				t.Fatalf("normalised value out of range: %v", v)
			}
			back := n.Invert(v)
			orig := d.SeriesAt(s.Location).Values[i]
			if math.Abs(back-orig) > 1e-12 {
				t.Fatalf("round trip %v -> %v, want %v", v, back, orig)
			}
		}
	}
}

func TestNormalizerDegenerate(t *testing.T) {
	d := &Dataset{Cx: 1, Cy: 1, Series: []*Series{{Values: []float64{5, 5, 5}}}}
	n := FitNormalizerWorkers(d, 1)
	norm := n.Apply(d)
	for _, v := range norm.Series[0].Values {
		if v != 0 {
			t.Fatalf("constant dataset should normalise to 0, got %v", v)
		}
	}
}

func TestClip(t *testing.T) {
	d := &Dataset{Cx: 1, Cy: 1, Series: []*Series{{Values: []float64{-1, 0.5, 10}}}}
	d.Clip(2)
	want := []float64{0, 0.5, 2}
	for i, v := range d.Series[0].Values {
		if v != want[i] {
			t.Fatalf("Clip = %v, want %v", d.Series[0].Values, want)
		}
	}
}

func TestClipPanicsOnBadCeiling(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	twoHouseholdDataset().Clip(0)
}

func TestSlidingWindows(t *testing.T) {
	w := SlidingWindows([]float64{1, 2, 3, 4, 5}, 2)
	if len(w) != 3 {
		t.Fatalf("got %d windows", len(w))
	}
	if w[0].Input[0] != 1 || w[0].Input[1] != 2 || w[0].Target != 3 {
		t.Fatalf("window 0 = %+v", w[0])
	}
	if w[2].Target != 5 {
		t.Fatalf("window 2 = %+v", w[2])
	}
	if SlidingWindows([]float64{1, 2}, 2) != nil {
		t.Fatal("too-short series should give nil")
	}
}

// Property: window inputs are copies, never aliases of the source.
func TestSlidingWindowsCopyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		ws := 1 + rng.Intn(n-1)
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64()
		}
		wins := SlidingWindows(v, ws)
		if len(wins) != n-ws {
			return false
		}
		orig := wins[0].Input[0]
		v[0] = -1
		return wins[0].Input[0] == orig
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMetricsHandComputed(t *testing.T) {
	truth := []float64{1, 2, 3}
	pred := []float64{2, 2, 1}
	if got := MAE(truth, pred); got != 1 {
		t.Fatalf("MAE = %v", got)
	}
	if got := RMSE(truth, pred); math.Abs(got-math.Sqrt(5.0/3)) > 1e-12 {
		t.Fatalf("RMSE = %v", got)
	}
}

func TestMetricsEmpty(t *testing.T) {
	if MAE(nil, nil) != 0 || RMSE(nil, nil) != 0 {
		t.Fatal("empty metrics should be 0")
	}
}

func TestMREFloorGuards(t *testing.T) {
	// True answer 0 with floor 1: error measured against the floor.
	if got := MRE(0, 5, 1); got != 500 {
		t.Fatalf("MRE with floor = %v", got)
	}
	if got := MRE(10, 5, 1); got != 50 {
		t.Fatalf("MRE = %v", got)
	}
	// Non-positive floor falls back to the package default.
	if got := MRE(0, 0, 0); got != 0 {
		t.Fatalf("MRE(0,0) = %v", got)
	}
}

// Property: RMSE ≥ MAE always (Jensen).
func TestRMSEDominatesMAEProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64() * 10
			b[i] = rng.NormFloat64() * 10
		}
		return RMSE(a, b) >= MAE(a, b)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
