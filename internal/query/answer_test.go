package query

import (
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/grid/gridtest"
)

// TestAnswerEdgeCases drives query.Answer with the shared edge-case table:
// every salvageable query must answer exactly the brute-force sum of its
// clipped region, and every empty intersection must report !ok.
func TestAnswerEdgeCases(t *testing.T) {
	const cx, cy, ct = 8, 6, 10
	rng := rand.New(rand.NewSource(7))
	m := grid.NewMatrix(cx, cy, ct)
	for i := 0; i < m.Len(); i++ {
		m.Data()[i] = rng.Float64() * 10
	}
	p := grid.NewPrefixSum(m)
	for _, c := range gridtest.Cases(cx, cy, ct) {
		t.Run(c.Name, func(t *testing.T) {
			sum, ok := Answer(p, c.In)
			if ok != c.ClipOK {
				t.Fatalf("ok = %v, want %v", ok, c.ClipOK)
			}
			if !ok {
				if sum != 0 {
					t.Fatalf("empty query answered %g, want 0", sum)
				}
				return
			}
			want := m.RangeSum(c.Clipped)
			if diff := sum - want; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("sum = %g, want %g", sum, want)
			}
		})
	}
}

// TestAnswerMatchesEvaluate: for strictly valid queries, Answer must agree
// with the sums the MRE evaluator computes internally (same prefix-sum
// path), so serving and evaluation cannot diverge.
func TestAnswerMatchesEvaluate(t *testing.T) {
	const cx, cy, ct = 8, 8, 12
	m := grid.NewMatrix(cx, cy, ct)
	for i := 0; i < m.Len(); i++ {
		m.Data()[i] = float64(i % 17)
	}
	p := grid.NewPrefixSum(m)
	qs := GenerateSeeded(3, Random, cx, cy, ct, 50)
	for i, q := range qs {
		sum, ok := Answer(p, q)
		if !ok {
			t.Fatalf("query %d: generated query reported empty", i)
		}
		if want := m.RangeSum(q); sum != want {
			t.Fatalf("query %d: Answer %g, want %g", i, sum, want)
		}
	}
}

// TestAnswerAllocs pins the steady-state allocation count of the serving
// daemon's per-request hot path: zero.
func TestAnswerAllocs(t *testing.T) {
	const cx, cy, ct = 16, 12, 24
	rng := rand.New(rand.NewSource(17))
	m := grid.NewMatrix(cx, cy, ct)
	for i := range m.Data() {
		m.Data()[i] = rng.NormFloat64() * 100
	}
	p := grid.NewPrefixSum(m)
	queries := GenerateSeeded(5, Random, cx, cy, ct, 64)
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		Answer(p, queries[i%len(queries)])
		i++
	}); n > 0 {
		t.Errorf("Answer allocates %v per run, want 0", n)
	}
}
