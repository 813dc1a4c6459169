package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func residual(a *Matrix, x, b []float64) float64 {
	ax := a.MulVec(x)
	var worst float64
	for i := range ax {
		if d := math.Abs(ax[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func TestSolveHandComputed(t *testing.T) {
	a := FromRows([][]float64{{2, 1}, {1, 3}})
	b := []float64{3, 5}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// 2x + y = 3, x + 3y = 5 → x = 4/5, y = 7/5.
	if math.Abs(x[0]-0.8) > 1e-12 || math.Abs(x[1]-1.4) > 1e-12 {
		t.Fatalf("Solve = %v", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Fatal("expected ErrSingular for rank-deficient matrix")
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	a := FromRows([][]float64{{0, 1}, {1, 0}})
	x, err := Solve(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 3 || x[1] != 2 {
		t.Fatalf("Solve with pivot = %v", x)
	}
}

// Property: Solve recovers x for random well-conditioned systems.
func TestSolveRandomProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		a := New(n, n).RandNormal(rng, 1)
		// Diagonal dominance keeps conditioning sane.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)+1)
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := a.MulVec(want)
		got, err := Solve(a, b)
		if err != nil {
			return false
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCholeskyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 6
	// Random SPD matrix: BᵀB + n·I.
	b := New(n, n).RandNormal(rng, 1)
	a := Mul(b.T(), b)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(Mul(l, l.T()), a, 1e-9) {
		t.Fatal("L*Lᵀ != A")
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	x := SolveCholesky(l, rhs)
	if r := residual(a, x, rhs); r > 1e-9 {
		t.Fatalf("Cholesky solve residual %v", r)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(a); err == nil {
		t.Fatal("expected failure on indefinite matrix")
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// Overdetermined but consistent system.
	a := FromRows([][]float64{{1, 0}, {0, 1}, {1, 1}})
	want := []float64{2, -1}
	b := a.MulVec(want)
	x, err := LeastSquares(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-9 {
			t.Fatalf("LeastSquares = %v, want %v", x, want)
		}
	}
}

func TestLeastSquaresResidualOrthogonality(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := New(20, 4).RandNormal(rng, 1)
	b := make([]float64, 20)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x, err := LeastSquares(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Residual must be orthogonal to the column space: aᵀ(ax-b) ≈ 0.
	r := a.MulVec(x)
	for i := range r {
		r[i] -= b[i]
	}
	g := a.TMulVec(r)
	for i := range g {
		if math.Abs(g[i]) > 1e-9 {
			t.Fatalf("normal equations violated: %v", g)
		}
	}
}
