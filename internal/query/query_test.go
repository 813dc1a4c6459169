package query

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/grid"
)

func TestGenerateSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	qs := Generate(rng, Small, 8, 8, 16, 100)
	if len(qs) != 100 {
		t.Fatalf("count %d", len(qs))
	}
	for _, q := range qs {
		if q.Volume() != 1 {
			t.Fatalf("small query volume %d", q.Volume())
		}
	}
}

func TestGenerateLargeClamped(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// 10x10x10 requested on an 8x8x16 matrix clamps the spatial extent.
	qs := Generate(rng, Large, 8, 8, 16, 50)
	for _, q := range qs {
		if q.X1-q.X0+1 != 8 || q.Y1-q.Y0+1 != 8 || q.T1-q.T0+1 != 10 {
			t.Fatalf("large query %+v", q)
		}
	}
	// Full-size when the matrix allows it.
	qs = Generate(rng, Large, 32, 32, 120, 50)
	for _, q := range qs {
		if q.Volume() != 1000 {
			t.Fatalf("large query volume %d", q.Volume())
		}
	}
}

// Property: every generated query of every class is valid for its matrix.
func TestGeneratedQueriesValidProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cx, cy, ct := 1+rng.Intn(16), 1+rng.Intn(16), 1+rng.Intn(40)
		m := grid.NewMatrix(cx, cy, ct)
		for _, class := range Classes() {
			for _, q := range Generate(rng, class, cx, cy, ct, 30) {
				if !q.Valid(m) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEvaluateExactReleaseIsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := grid.NewMatrix(6, 6, 10)
	for i := range m.Data() {
		m.Data()[i] = rng.Float64() * 5
	}
	qs := Generate(rng, Random, 6, 6, 10, 200)
	if got := Evaluate(m, m, qs, 0, 1); got != 0 {
		t.Fatalf("exact release MRE = %v", got)
	}
}

func TestEvaluateKnownError(t *testing.T) {
	truth := grid.NewMatrix(2, 2, 2)
	release := grid.NewMatrix(2, 2, 2)
	for i := range truth.Data() {
		truth.Data()[i] = 10
		release.Data()[i] = 12 // uniformly +20%
	}
	qs := []grid.Query{{X0: 0, X1: 1, Y0: 0, Y1: 1, T0: 0, T1: 1}}
	got := Evaluate(truth, release, qs, 1, 1)
	if math.Abs(got-20) > 1e-9 {
		t.Fatalf("MRE = %v, want 20", got)
	}
}

func TestEvaluateSkipsSubFloorQueries(t *testing.T) {
	truth := grid.NewMatrix(2, 2, 2)
	truth.Set(0, 0, 0, 20) // one meaningful cell
	release := truth.Clone()
	release.Set(0, 0, 0, 30)   // 50% off on the meaningful cell
	release.Set(1, 1, 1, 1000) // spurious mass in an empty cell
	qs := []grid.Query{
		{X0: 0, X1: 0, Y0: 0, Y1: 0, T0: 0, T1: 0}, // true 20 → counted
		{X0: 1, X1: 1, Y0: 1, Y1: 1, T0: 1, T1: 1}, // true 0 → skipped
	}
	got := Evaluate(truth, release, qs, 10, 1)
	if math.Abs(got-50) > 1e-9 {
		t.Fatalf("MRE = %v, want 50 (empty-region query skipped)", got)
	}
	// All queries sub-floor → 0 by convention.
	empty := grid.NewMatrix(2, 2, 2)
	if got := Evaluate(empty, release, qs, 10, 1); got != 0 {
		t.Fatalf("all-skipped MRE = %v, want 0", got)
	}
}

func TestEvaluateAllCoversClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	truth := grid.NewMatrix(8, 8, 12)
	for i := range truth.Data() {
		truth.Data()[i] = rng.Float64()
	}
	res := EvaluateAll(truth, truth, 20, 5)
	if len(res) != 3 {
		t.Fatalf("classes covered: %d", len(res))
	}
	for c, v := range res {
		if v != 0 {
			t.Fatalf("%v: exact release MRE %v", c, v)
		}
	}
}

// Evaluate's workers reduce per-shard (sum, count) pairs in shard order —
// identical queries per shard, so the only difference from serial is float
// summation regrouping.
func TestEvaluateWorkersMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	truth := grid.NewMatrix(9, 7, 13)
	release := grid.NewMatrix(9, 7, 13)
	for i := range truth.Data() {
		truth.Data()[i] = rng.Float64() * 40
		release.Data()[i] = truth.Data()[i] * (0.8 + 0.4*rng.Float64())
	}
	qs := Generate(rng, Random, 9, 7, 13, 301)
	serial := Evaluate(truth, release, qs, 0, 1)
	for _, workers := range []int{0, 1, 2, 3, 7, 64} {
		got := Evaluate(truth, release, qs, 0, workers)
		if math.Abs(got-serial) > 1e-9*(1+math.Abs(serial)) {
			t.Fatalf("workers=%d: MRE %v, want %v", workers, got, serial)
		}
	}
	// workers<=1 takes the identical serial path: bit-for-bit.
	if Evaluate(truth, release, qs, 0, 0) != serial {
		t.Fatal("workers=0 not bit-identical to workers=1")
	}
	// Determinism at a fixed worker count.
	if Evaluate(truth, release, qs, 0, 5) != Evaluate(truth, release, qs, 0, 5) {
		t.Fatal("workers=5 not deterministic")
	}
}

// Per-class sub-seeds must be pairwise distinct and stable, and each
// class's query set must depend only on (seed, class).
func TestClassSeedIndependentStreams(t *testing.T) {
	seen := map[int64]Class{}
	for _, c := range Classes() {
		s := ClassSeed(42, c)
		if prev, dup := seen[s]; dup {
			t.Fatalf("ClassSeed collision between %v and %v", prev, c)
		}
		seen[s] = c
		if s != ClassSeed(42, c) {
			t.Fatalf("ClassSeed(42, %v) not stable", c)
		}
	}
	// The small-class queries are the same whether or not other classes
	// are generated first — the property threading one RNG breaks.
	direct := GenerateSeeded(ClassSeed(9, Small), Small, 8, 8, 16, 25)
	_ = GenerateSeeded(ClassSeed(9, Random), Random, 8, 8, 16, 999)
	again := GenerateSeeded(ClassSeed(9, Small), Small, 8, 8, 16, 25)
	for i := range direct {
		if direct[i] != again[i] {
			t.Fatal("small-class queries perturbed by other class generation")
		}
	}
}

func TestEvaluateDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Evaluate(grid.NewMatrix(2, 2, 2), grid.NewMatrix(2, 2, 3), nil, 1, 1)
}

func TestClassString(t *testing.T) {
	if Random.String() != "random" || Small.String() != "small" || Large.String() != "large" {
		t.Fatal("class names wrong")
	}
}
