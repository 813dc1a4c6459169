package baselines

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/timeseries"
)

func testInput(cx, cy, n, T int, seed int64) Input {
	rng := rand.New(rand.NewSource(seed))
	d := &timeseries.Dataset{Name: "test", Cx: cx, Cy: cy}
	for i := 0; i < n; i++ {
		vals := make([]float64, T)
		base := 0.3 + rng.Float64()
		for t := range vals {
			vals[t] = base * (1 + 0.4*math.Sin(2*math.Pi*float64(t)/12))
			if vals[t] < 0 {
				vals[t] = 0
			}
		}
		d.Series = append(d.Series, &timeseries.Series{
			Location: timeseries.Location{X: rng.Intn(cx), Y: rng.Intn(cy)},
			Values:   vals,
		})
	}
	return Input{Dataset: d, TTrain: T / 3, CellSensitivity: 2}
}

func TestAllBaselinesProduceValidReleases(t *testing.T) {
	in := testInput(4, 4, 30, 24, 1)
	truth := in.Truth()
	algs := append(Registry(), NewWPO())
	for _, a := range algs {
		rel, err := a.Release(context.Background(), in, 10, 7)
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if rel.Cx != truth.Cx || rel.Cy != truth.Cy || rel.Ct != truth.Ct {
			t.Fatalf("%s: dims %dx%dx%d", a.Name(), rel.Cx, rel.Cy, rel.Ct)
		}
		for _, v := range rel.Data() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: non-finite release value", a.Name())
			}
			if v < 0 {
				t.Fatalf("%s: negative release value %v", a.Name(), v)
			}
		}
	}
}

func TestBaselinesDeterministicPerSeed(t *testing.T) {
	in := testInput(4, 4, 20, 18, 2)
	for _, a := range Registry() {
		r1, err := a.Release(context.Background(), in, 5, 42)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := a.Release(context.Background(), in, 5, 42)
		if err != nil {
			t.Fatal(err)
		}
		for i := range r1.Data() {
			if r1.Data()[i] != r2.Data()[i] {
				t.Fatalf("%s: not deterministic for fixed seed", a.Name())
			}
		}
	}
}

func TestIdentityErrorShrinksWithBudget(t *testing.T) {
	in := testInput(4, 4, 40, 20, 3)
	truth := in.Truth()
	id := NewIdentity()
	err := func(eps float64) float64 {
		var total float64
		const trials = 10
		for s := int64(0); s < trials; s++ {
			rel, e := id.Release(context.Background(), in, eps, s)
			if e != nil {
				t.Fatal(e)
			}
			for i, v := range rel.Data() {
				total += math.Abs(v - truth.Data()[i])
			}
		}
		return total / trials
	}
	lowBudget := err(1)
	highBudget := err(100)
	if highBudget >= lowBudget {
		t.Fatalf("error should shrink with budget: ε=1 → %v, ε=100 → %v", lowBudget, highBudget)
	}
}

func TestLookup(t *testing.T) {
	for _, name := range []string{"identity", "fast", "fourier-10", "fourier-20", "wavelet-10", "wavelet-20", "lgan-dp", "wpo"} {
		a, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if a.Name() != name {
			t.Fatalf("Lookup(%q).Name() = %q", name, a.Name())
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("expected error for unknown algorithm")
	}
}

func TestTruthPanicsWithoutHorizon(t *testing.T) {
	in := testInput(2, 2, 4, 6, 4)
	in.TTrain = 6
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	in.Truth()
}

// --- Fourier internals ---

func TestDFTRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 7, 8, 16, 30, 64} {
		rng := rand.New(rand.NewSource(int64(n)))
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		back := InverseDFT(DFT(x))
		for i := range x {
			if math.Abs(back[i]-x[i]) > 1e-9 {
				t.Fatalf("n=%d: round trip [%d] %v vs %v", n, i, back[i], x[i])
			}
		}
	}
}

func TestDFTMatchesDirectOnPow2(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := make([]float64, 16)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	fft := DFT(x)
	c := make([]complex128, 16)
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	direct := dftDirect(c, false)
	for i := range fft {
		if math.Abs(real(fft[i])-real(direct[i])) > 1e-9 || math.Abs(imag(fft[i])-imag(direct[i])) > 1e-9 {
			t.Fatalf("FFT[%d] = %v, direct %v", i, fft[i], direct[i])
		}
	}
}

func TestDFTParsevalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(32)
		x := make([]float64, n)
		var timeEnergy float64
		for i := range x {
			x[i] = rng.NormFloat64()
			timeEnergy += x[i] * x[i]
		}
		c := DFT(x)
		var freqEnergy float64
		for _, v := range c {
			re, im := real(v), imag(v)
			freqEnergy += re*re + im*im
		}
		freqEnergy /= float64(n)
		return math.Abs(timeEnergy-freqEnergy) < 1e-6*math.Max(1, timeEnergy)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// --- Haar internals ---

func TestHaarRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 32} {
		rng := rand.New(rand.NewSource(int64(n)))
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		back := InverseHaar(HaarTransform(x))
		for i := range x {
			if math.Abs(back[i]-x[i]) > 1e-9 {
				t.Fatalf("n=%d: round trip failed at %d", n, i)
			}
		}
	}
}

// Property: Haar transform is orthonormal — it preserves the L2 norm.
func TestHaarOrthonormalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (1 + rng.Intn(5))
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		c := HaarTransform(x)
		var ex, ec float64
		for i := range x {
			ex += x[i] * x[i]
			ec += c[i] * c[i]
		}
		return math.Abs(ex-ec) < 1e-9*math.Max(1, ex)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestHaarPanicsOnNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	HaarTransform(make([]float64, 6))
}

func TestHaarConstantSeries(t *testing.T) {
	x := []float64{3, 3, 3, 3}
	c := HaarTransform(x)
	// A constant series concentrates all energy in the smooth coefficient.
	if math.Abs(c[0]-6) > 1e-12 { // 3 * sqrt(4)
		t.Fatalf("smooth coefficient %v, want 6", c[0])
	}
	for i := 1; i < 4; i++ {
		if math.Abs(c[i]) > 1e-12 {
			t.Fatalf("detail coefficient %d = %v, want 0", i, c[i])
		}
	}
}

// --- FAST internals ---

func TestFASTTracksConstantSeriesWithGenerousBudget(t *testing.T) {
	in := testInput(2, 2, 10, 30, 5)
	// Override: constant consumption.
	for _, s := range in.Dataset.Series {
		for i := range s.Values {
			s.Values[i] = 1
		}
	}
	truth := in.Truth()
	rel, err := NewFAST().Release(context.Background(), in, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for i, v := range rel.Data() {
		if d := math.Abs(v - truth.Data()[i]); d > worst {
			worst = d
		}
	}
	if worst > truth.Max()*0.5 {
		t.Fatalf("FAST tracking error %v too large for constant series", worst)
	}
}

func TestWPOIsSpatiallyUniform(t *testing.T) {
	in := testInput(4, 4, 30, 24, 6)
	rel, err := NewWPO().Release(context.Background(), in, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Every cell within a time slice must hold the same value.
	for tt := 0; tt < rel.Ct; tt++ {
		v0 := rel.At(0, 0, tt)
		for y := 0; y < rel.Cy; y++ {
			for x := 0; x < rel.Cx; x++ {
				if rel.At(x, y, tt) != v0 {
					t.Fatalf("WPO not uniform at t=%d", tt)
				}
			}
		}
	}
}

func TestFourierHighBudgetRecoversSmoothSeries(t *testing.T) {
	in := testInput(2, 2, 20, 24, 7)
	truth := in.Truth()
	rel, err := NewFourier(20).Release(context.Background(), in, 1e6, 1)
	if err != nil {
		t.Fatal(err)
	}
	// With k = 20 of 16 horizon points (k capped at T) and huge budget the
	// reconstruction should be near-exact.
	for i, v := range rel.Data() {
		if math.Abs(v-truth.Data()[i]) > 0.05*math.Max(1, truth.Max()) {
			t.Fatalf("Fourier reconstruction off at %d: %v vs %v", i, v, truth.Data()[i])
		}
	}
}

func TestExtendedBaselinesProduceValidReleases(t *testing.T) {
	in := testInput(8, 8, 60, 24, 11)
	truth := in.Truth()
	for _, a := range Extended() {
		rel, err := a.Release(context.Background(), in, 20, 5)
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if rel.Len() != truth.Len() {
			t.Fatalf("%s: size mismatch", a.Name())
		}
		for _, v := range rel.Data() {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: invalid value %v", a.Name(), v)
			}
		}
	}
}

func TestAR1SmoothsBetterThanIdentityOnPersistentSeries(t *testing.T) {
	// Slowly varying truth: the AR(1) posterior should beat raw
	// per-timestamp noise.
	in := testInput(4, 4, 40, 30, 12)
	for _, s := range in.Dataset.Series {
		for i := range s.Values {
			s.Values[i] = 1 + 0.1*math.Sin(float64(i)/10)
		}
	}
	truth := in.Truth()
	errOf := func(a Algorithm) float64 {
		var total float64
		for seed := int64(0); seed < 10; seed++ {
			rel, err := a.Release(context.Background(), in, 5, seed)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range rel.Data() {
				total += math.Abs(v - truth.Data()[i])
			}
		}
		return total
	}
	if ar := errOf(NewAR1()); ar >= errOf(NewIdentity()) {
		t.Fatalf("AR1 (%v) should beat Identity (%v) on persistent series", ar, errOf(NewIdentity()))
	}
}

func TestAdaptiveGridCoarsensUnderSmallBudget(t *testing.T) {
	in := testInput(8, 8, 30, 18, 13)
	// Tiny budget → m = 1 → every time slice spatially uniform.
	rel, err := NewAdaptiveGrid().Release(context.Background(), in, 0.0001, 3)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < rel.Ct; tt++ {
		v0 := rel.At(0, 0, tt)
		for y := 0; y < rel.Cy; y++ {
			for x := 0; x < rel.Cx; x++ {
				if rel.At(x, y, tt) != v0 {
					t.Fatalf("tiny-budget adaptive grid should be uniform at t=%d", tt)
				}
			}
		}
	}
}

func TestHTFPartitionsTrackMass(t *testing.T) {
	// Heavy mass confined to one quadrant: with a generous budget HTF's
	// mass-balancing splits should localise it, so the empty corner
	// receives far less than the hotspot.
	in := testInput(8, 8, 40, 16, 21)
	for _, s := range in.Dataset.Series {
		hot := s.Location.X < 4 && s.Location.Y < 4
		for i := range s.Values {
			if hot {
				s.Values[i] = 2
			} else {
				s.Values[i] = 0.01
			}
		}
	}
	rel, err := NewHTF().Release(context.Background(), in, 500, 2)
	if err != nil {
		t.Fatal(err)
	}
	var hot, cold float64
	for tt := 0; tt < rel.Ct; tt++ {
		hot += rel.At(1, 1, tt)
		cold += rel.At(6, 6, tt)
	}
	if hot < 3*cold {
		t.Fatalf("HTF failed to localise mass: hot %v vs cold %v", hot, cold)
	}
}

func TestHTFSingleCellMatrix(t *testing.T) {
	// Degenerate 1x1x1 volume must not split and must release one value.
	in := testInput(1, 1, 3, 3, 22)
	in.TTrain = 2
	rel, err := NewHTF().Release(context.Background(), in, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 {
		t.Fatalf("cells = %d", rel.Len())
	}
}
