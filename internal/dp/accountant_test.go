package dp

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestSequentialCompositionAdds(t *testing.T) {
	a := NewAccountant("pipeline", Sequential)
	a.Root().Child("t0", Sequential).Spend(0.3)
	a.Root().Child("t1", Sequential).Spend(0.7)
	if got := a.TotalEpsilon(); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("sequential total = %v, want 1", got)
	}
}

func TestParallelCompositionTakesMax(t *testing.T) {
	a := NewAccountant("space", Parallel)
	a.Root().Child("cellA", Sequential).Spend(0.3)
	a.Root().Child("cellB", Sequential).Spend(0.9)
	a.Root().Child("cellC", Sequential).Spend(0.5)
	if got := a.TotalEpsilon(); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("parallel total = %v, want 0.9", got)
	}
}

// The paper's Theorem 5 structure: time composes sequentially, space in
// parallel within each time slice.
func TestConsumptionMatrixComposition(t *testing.T) {
	a := NewAccountant("matrix", Sequential)
	const timeSlices, cells = 4, 3
	perSlice := 0.25
	for ti := 0; ti < timeSlices; ti++ {
		slice := a.Root().Child("t"+string(rune('0'+ti)), Parallel)
		for c := 0; c < cells; c++ {
			slice.Child("cell"+string(rune('0'+c)), Sequential).Spend(perSlice)
		}
	}
	// Each slice costs max over cells = 0.25; slices add = 1.0.
	if got := a.TotalEpsilon(); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("matrix total = %v, want 1.0", got)
	}
}

func TestScopeReuseAndModeConflict(t *testing.T) {
	a := NewAccountant("root", Sequential)
	s1 := a.Root().Child("phase", Sequential)
	s2 := a.Root().Child("phase", Sequential)
	s1.Spend(0.1)
	s2.Spend(0.2)
	if got := a.TotalEpsilon(); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("reused scope total = %v, want 0.3", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mode conflict")
		}
	}()
	a.Root().Child("phase", Parallel)
}

func TestNegativeSpendPanics(t *testing.T) {
	a := NewAccountant("root", Sequential)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative spend")
		}
	}()
	a.Root().Spend(-0.1)
}

func TestAccountantConcurrentSpends(t *testing.T) {
	a := NewAccountant("root", Sequential)
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.Root().Child("shared", Sequential).Spend(0.01)
		}()
	}
	wg.Wait()
	if got := a.TotalEpsilon(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("concurrent total = %v, want 0.5", got)
	}
}

func TestReportContainsScopes(t *testing.T) {
	a := NewAccountant("pipeline", Sequential)
	a.Root().Child("pattern", Sequential).Spend(10)
	a.Root().Child("sanitize", Sequential).Spend(20)
	r := a.Report()
	for _, want := range []string{"pipeline", "pattern", "sanitize", "ε=30"} {
		if !strings.Contains(r, want) {
			t.Fatalf("report missing %q:\n%s", want, r)
		}
	}
}

func TestAllocateOptimalMatchesClosedForm(t *testing.T) {
	s := []float64{1, 8} // s^{2/3} = 1, 4
	got := AllocateOptimal(s, 10)
	if math.Abs(got[0]-2) > 1e-12 || math.Abs(got[1]-8) > 1e-12 {
		t.Fatalf("allocation = %v, want [2 8]", got)
	}
}

func TestAllocateOptimalZeroSensitivity(t *testing.T) {
	got := AllocateOptimal([]float64{0, 2, 0}, 6)
	if got[0] != 0 || got[2] != 0 {
		t.Fatalf("zero-sensitivity partitions got budget: %v", got)
	}
	if math.Abs(got[1]-6) > 1e-12 {
		t.Fatalf("all budget should go to the only sensitive partition: %v", got)
	}
	all0 := AllocateOptimal([]float64{0, 0}, 6)
	if all0[0] != 0 || all0[1] != 0 {
		t.Fatalf("all-zero sensitivities: %v", all0)
	}
}

func TestAllocateUniform(t *testing.T) {
	got := AllocateUniform(4, 2)
	for _, e := range got {
		if e != 0.5 {
			t.Fatalf("uniform allocation = %v", got)
		}
	}
}

// Property (Theorem 8 optimality): the closed-form allocation achieves
// total variance no worse than random feasible allocations of the same
// total budget.
func TestAllocateOptimalBeatsRandomProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		sens := make([]float64, n)
		for i := range sens {
			sens[i] = 0.1 + rng.Float64()*10
		}
		total := 1 + rng.Float64()*20
		opt := AllocateOptimal(sens, total)
		optVar := TotalVariance(sens, opt)
		// Random feasible competitor from a Dirichlet-ish draw.
		w := make([]float64, n)
		var sum float64
		for i := range w {
			w[i] = -math.Log(rng.Float64())
			sum += w[i]
		}
		comp := make([]float64, n)
		for i := range comp {
			comp[i] = total * w[i] / sum
		}
		return optVar <= TotalVariance(sens, comp)*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the optimal allocation always sums to the total budget.
func TestAllocateOptimalSumsToTotal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		sens := make([]float64, n)
		for i := range sens {
			sens[i] = rng.Float64() * 5
		}
		any := false
		for _, s := range sens {
			if s > 0 {
				any = true
			}
		}
		if !any {
			sens[0] = 1
		}
		total := 0.5 + rng.Float64()*30
		alloc := AllocateOptimal(sens, total)
		var sum float64
		for _, e := range alloc {
			sum += e
		}
		return math.Abs(sum-total) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTotalVarianceInfOnZeroBudget(t *testing.T) {
	v := TotalVariance([]float64{1}, []float64{0})
	if !math.IsInf(v, 1) {
		t.Fatalf("want +Inf, got %v", v)
	}
}
