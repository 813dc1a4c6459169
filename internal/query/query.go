// Package query generates the range-query workloads of Section 5.1 (small
// 1x1x1, large 10x10x10, and random shape-and-size 3-orthotopes) and
// evaluates releases with the Mean Relative Error metric of Eq. 5.
package query

import (
	"fmt"
	"math/rand"

	"repro/internal/grid"
	"repro/internal/parallel"
	"repro/internal/timeseries"
)

// Class selects a workload shape.
type Class int

const (
	// Random draws 3-orthotopes of uniformly random position and extent.
	Random Class = iota
	// Small draws single-cell (1x1x1) queries.
	Small
	// Large draws 10x10x10 queries (clamped to the matrix dimensions).
	Large
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Random:
		return "random"
	case Small:
		return "small"
	case Large:
		return "large"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Classes lists the three workloads in the paper's figure order.
func Classes() []Class { return []Class{Random, Small, Large} }

// Generate draws count queries of the class over a Cx x Cy x Ct matrix.
//
// The Random distribution is pinned — workload stability across refactors
// is part of the figure-reproduction contract, and the seed-stability test
// in query_test.go holds it in place. Per query, each axis independently
// draws an inclusive span via span(rng, n): two rng.Intn(n) endpoints in
// draw order (low candidate first, high candidate second), swapped into
// ascending order. There is NO minimum size floor: single-cell spans occur
// whenever the two draws collide, and span lengths follow the triangular
// distribution P(len = L) = (2(n-L) + [L == n]) / n² that favours short
// queries. The axis order is X, then Y, then T — three RNG consumption
// pairs per query — so any reordering, re-draw, or added floor shifts
// every subsequent query in the stream and is a breaking change to the
// published workloads.
func Generate(rng *rand.Rand, class Class, cx, cy, ct, count int) []grid.Query {
	if count <= 0 {
		panic(fmt.Sprintf("query: non-positive count %d", count))
	}
	out := make([]grid.Query, count)
	for i := range out {
		switch class {
		case Small:
			out[i] = fixedSize(rng, cx, cy, ct, 1, 1, 1)
		case Large:
			out[i] = fixedSize(rng, cx, cy, ct, 10, 10, 10)
		case Random:
			out[i] = grid.Query{}
			out[i].X0, out[i].X1 = span(rng, cx)
			out[i].Y0, out[i].Y1 = span(rng, cy)
			out[i].T0, out[i].T1 = span(rng, ct)
		default:
			panic(fmt.Sprintf("query: unknown class %v", class))
		}
	}
	return out
}

func fixedSize(rng *rand.Rand, cx, cy, ct, dx, dy, dt int) grid.Query {
	if dx > cx {
		dx = cx
	}
	if dy > cy {
		dy = cy
	}
	if dt > ct {
		dt = ct
	}
	x0 := rng.Intn(cx - dx + 1)
	y0 := rng.Intn(cy - dy + 1)
	t0 := rng.Intn(ct - dt + 1)
	return grid.Query{X0: x0, X1: x0 + dx - 1, Y0: y0, Y1: y0 + dy - 1, T0: t0, T1: t0 + dt - 1}
}

// span draws one inclusive axis range: two independent uniform endpoints,
// ordered. Pinned by TestGenerateRandomSeedStability — see Generate.
func span(rng *rand.Rand, n int) (int, int) {
	a, b := rng.Intn(n), rng.Intn(n)
	if a > b {
		a, b = b, a
	}
	return a, b
}

// Evaluate returns the mean MRE (%) of the release against the truth over
// the queries. Relative error is undefined for (near-)empty regions, so —
// following the established convention for sparse spatial data — queries
// whose true answer falls below a floor are skipped: by default
// max(1, 0.1% of the true mass scaled to the query's volume), or a fixed
// value when floor > 0 is passed. Queries at or above the floor use their
// true answer as the denominator (Eq. 5 verbatim). When every query is
// sub-floor the function returns 0. The query loop is sharded across
// workers as Evaluator.Evaluate documents.
func Evaluate(truth, release *grid.Matrix, queries []grid.Query, floor float64, workers int) float64 {
	return NewEvaluator(truth, release).Evaluate(queries, floor, workers)
}

// Evaluator holds the range-sum indexes of one (truth, release) pair so
// repeated evaluations — the three workload classes of EvaluateAll, or
// sweeps that re-score the same release under different floors — reuse
// the O(cells) summed-volume construction instead of rebuilding it per
// call.
type Evaluator struct {
	tp, rp       *grid.PrefixSum
	perCellFloor float64
}

// NewEvaluator indexes the truth/release pair once for repeated evaluation.
func NewEvaluator(truth, release *grid.Matrix) *Evaluator {
	if truth.Cx != release.Cx || truth.Cy != release.Cy || truth.Ct != release.Ct {
		panic("query: truth/release dimension mismatch")
	}
	return &Evaluator{
		tp:           grid.NewPrefixSum(truth),
		rp:           grid.NewPrefixSum(release),
		perCellFloor: truth.Total() * 0.001 / float64(truth.Len()),
	}
}

// Evaluate scores the queries as documented on the package-level
// Evaluate. Each of up to workers shards accumulates its own (error sum,
// counted queries) pair over a contiguous stretch of the query list, and
// the pairs are reduced in shard order, so the result is deterministic
// for any fixed worker count and matches the serial evaluation up to
// float summation regrouping (bit-identically at workers <= 1).
func (e *Evaluator) Evaluate(queries []grid.Query, floor float64, workers int) float64 {
	shards := parallel.Shards(len(queries), workers)
	sums := make([]float64, len(shards))
	counts := make([]int, len(shards))
	parallel.ForEachShard(workers, len(queries), func(s int, r parallel.Range) {
		var sum float64
		n := 0
		for _, q := range queries[r.Lo:r.Hi] {
			f := floor
			if f <= 0 {
				f = e.perCellFloor * float64(q.Volume())
				if f < 1 {
					f = 1
				}
			}
			p := e.tp.RangeSum(q)
			if p < f {
				continue
			}
			sum += timeseries.MRE(p, e.rp.RangeSum(q), 0)
			n++
		}
		sums[s], counts[s] = sum, n
	})
	var sum float64
	n := 0
	for s := range shards {
		sum += sums[s]
		n += counts[s]
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Answer evaluates a single range query against an indexed release: the
// query is canonicalised (bound order is untrusted) and clipped to the
// index's box, then answered in O(1). ok is false — and the sum 0 — when
// the query does not intersect the box at all. This is the evaluation
// path the serving daemon uses per request, factored here so the sweep
// code and the server cannot drift apart on query semantics.
func Answer(p *grid.PrefixSum, q grid.Query) (sum float64, ok bool) {
	cx, cy, ct := p.Dims()
	clipped, ok := q.Canonicalize().Clip(cx, cy, ct)
	if !ok {
		return 0, false
	}
	return p.RangeSum(clipped), true
}

// GenerateSeeded is Generate with a fresh PRNG from the seed — convenient
// for callers that don't manage a *rand.Rand.
func GenerateSeeded(seed int64, class Class, cx, cy, ct, count int) []grid.Query {
	return Generate(rand.New(rand.NewSource(seed)), class, cx, cy, ct, count)
}

// ClassSeed derives an independent sub-seed for one workload class from a
// base seed by splitmix64-style bit mixing. Deriving per-class streams —
// instead of threading one RNG across classes — means each class's query
// set depends only on (seed, class): adding, removing, or resizing one
// workload never perturbs another's queries.
func ClassSeed(seed int64, c Class) int64 {
	z := uint64(seed) + (uint64(c)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// EvaluateAll runs all three workload classes with count queries each and
// returns the per-class mean MRE. Each class draws its queries from its own
// ClassSeed-derived PRNG stream. The truth/release indexes are built once
// and shared across the classes; per-class results are bit-identical to
// three independent Evaluate calls.
func EvaluateAll(truth, release *grid.Matrix, count int, seed int64) map[Class]float64 {
	ev := NewEvaluator(truth, release)
	out := make(map[Class]float64, 3)
	for _, c := range Classes() {
		qs := GenerateSeeded(ClassSeed(seed, c), c, truth.Cx, truth.Cy, truth.Ct, count)
		out[c] = ev.Evaluate(qs, 0, 1)
	}
	return out
}
