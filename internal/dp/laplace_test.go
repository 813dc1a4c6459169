package dp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLaplaceMoments(t *testing.T) {
	l := NewLaplace(rand.New(rand.NewSource(42)))
	const n = 200000
	const scale = 2.5
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := l.Sample(scale)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("Laplace mean %v, want ~0", mean)
	}
	want := 2 * scale * scale
	if math.Abs(variance-want)/want > 0.05 {
		t.Fatalf("Laplace variance %v, want ~%v", variance, want)
	}
}

func TestLaplaceSymmetry(t *testing.T) {
	l := NewLaplace(rand.New(rand.NewSource(7)))
	var pos, neg int
	for i := 0; i < 100000; i++ {
		if l.Sample(1) > 0 {
			pos++
		} else {
			neg++
		}
	}
	ratio := float64(pos) / float64(neg)
	if ratio < 0.97 || ratio > 1.03 {
		t.Fatalf("Laplace sign ratio %v, want ~1", ratio)
	}
}

func TestLaplaceTailProbability(t *testing.T) {
	// P(|X| > b·k) = exp(-k) for Laplace(b).
	l := NewLaplace(rand.New(rand.NewSource(8)))
	const n = 200000
	var exceed int
	for i := 0; i < n; i++ {
		if math.Abs(l.Sample(1)) > 2 {
			exceed++
		}
	}
	got := float64(exceed) / n
	want := math.Exp(-2)
	if math.Abs(got-want)/want > 0.1 {
		t.Fatalf("tail mass %v, want ~%v", got, want)
	}
}

func TestLaplacePanicsOnBadScale(t *testing.T) {
	l := NewLaplace(rand.New(rand.NewSource(1)))
	for _, s := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for scale %v", s)
				}
			}()
			l.Sample(s)
		}()
	}
}

func TestPerturbUsesCorrectScale(t *testing.T) {
	l := NewLaplace(rand.New(rand.NewSource(3)))
	const n = 100000
	var sumSq float64
	for i := 0; i < n; i++ {
		d := l.Perturb(10, 2, 0.5) - 10
		sumSq += d * d
	}
	variance := sumSq / n
	want := 2.0 * (2 / 0.5) * (2 / 0.5) // 2b², b = s/ε = 4
	if math.Abs(variance-want)/want > 0.05 {
		t.Fatalf("Perturb variance %v, want ~%v", variance, want)
	}
}

func TestScaleValidation(t *testing.T) {
	if Scale(2, 4) != 0.5 {
		t.Fatal("Scale arithmetic wrong")
	}
	for _, fn := range []func(){
		func() { Scale(-1, 1) },
		func() { Scale(1, 0) },
		func() { Scale(1, -2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// zeroFirstSource's first Int63 is 0, so the first rng.Float64() is
// exactly 0; after that it counts up from 1<<62 (Float64 = 0.5, ...).
type zeroFirstSource struct{ n int64 }

func (s *zeroFirstSource) Int63() int64 {
	if s.n == 0 {
		s.n = 1 << 62
		return 0
	}
	v := s.n
	s.n++
	return v
}

func (s *zeroFirstSource) Seed(int64) {}

// A Float64 draw of exactly 0 would put u at -1/2 and return ln 0 = -Inf;
// Sample redraws it and uses the next draw unchanged.
func TestLaplaceSampleRedrawsZero(t *testing.T) {
	l := NewLaplace(rand.New(&zeroFirstSource{}))
	x := l.Sample(1)
	if math.IsInf(x, 0) || math.IsNaN(x) {
		t.Fatalf("Sample(1) = %v after a zero draw, want finite", x)
	}
	// The redraw is Float64 = 0.5, so u = 0 and the sample is -ln 1 = 0.
	if x != 0 {
		t.Fatalf("Sample(1) = %v, want 0 from the redrawn u = 0", x)
	}
}

func TestSecureLaplaceBasic(t *testing.T) {
	s := &SecureLaplace{Bound: 100}
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		x := s.Sample(5, 1)
		if x > 100 || x < -100 {
			t.Fatalf("clamp violated: %v", x)
		}
		sum += x
	}
	mean := sum / n
	if math.Abs(mean-5) > 0.2 {
		t.Fatalf("secure Laplace mean %v, want ~5", mean)
	}
}

func TestSecureLaplaceSnapsToGrid(t *testing.T) {
	s := &SecureLaplace{}
	lambda := math.Ldexp(1, int(math.Ceil(math.Log2(1.0)))-40)
	for i := 0; i < 100; i++ {
		x := s.Sample(0, 1)
		q := x / lambda
		if math.Abs(q-math.Round(q)) > 1e-6 {
			t.Fatalf("sample %v not on grid %v", x, lambda)
		}
	}
}

func TestLaplaceVariance(t *testing.T) {
	got := LaplaceVariance(2, 0.5)
	if got != 32 { // 2·(2/0.5)² = 32
		t.Fatalf("LaplaceVariance = %v", got)
	}
}

// Property: the empirical DP guarantee holds for a two-point dataset pair.
// For outputs above any threshold, the likelihood ratio between neighbours
// differing by the sensitivity must not exceed e^ε (up to sampling error).
func TestLaplaceDPRatioProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := NewLaplace(rng)
		eps := 0.5 + rng.Float64() // ε ∈ [0.5, 1.5]
		sens := 1.0
		const n = 60000
		// Neighbouring query answers 0 and sens.
		thr := sens / 2
		var c0, c1 int
		for i := 0; i < n; i++ {
			if l.Perturb(0, sens, eps) > thr {
				c0++
			}
			if l.Perturb(sens, sens, eps) > thr {
				c1++
			}
		}
		p0 := (float64(c0) + 1) / float64(n+1)
		p1 := (float64(c1) + 1) / float64(n+1)
		ratio := p1 / p0
		// Allow 15% sampling slack above the theoretical bound e^ε.
		return ratio <= math.Exp(eps)*1.15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
