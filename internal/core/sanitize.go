package core

import (
	"fmt"
	"math"

	"repro/internal/dp"
	"repro/internal/grid"
	"repro/internal/parallel"
)

// Partition is one k-quantization bucket: a (possibly scattered) set of
// cells of the consumption matrix grouped by similar predicted value.
type Partition struct {
	Level int // quantization bucket index
	Cells []cellRef
	// PillarMax is the largest number of the partition's cells sharing one
	// (x, y) pillar — the Theorem-7 sensitivity in units of per-cell
	// sensitivity.
	PillarMax int
}

type cellRef struct{ x, y, t int }

// QuantMode selects the bucket geometry of the k-quantization.
type QuantMode int

const (
	// QuantLog cuts log(1+v) into k equal buckets. Consumption magnitudes
	// are heavy-tailed across space (a downtown cell holds orders of
	// magnitude more mass than a suburban one), so equal-width buckets in
	// the linear domain collapse almost every cell into bucket zero;
	// log-domain buckets keep partitions value-homogeneous — the stated
	// goal of the paper's partitioning — across the whole range. This is
	// post-processing of the private pattern matrix, so the choice has no
	// privacy cost. Default.
	QuantLog QuantMode = iota
	// QuantLinear is Definition 4 verbatim: equal-width buckets over
	// [min, max]. Kept for the ablation benchmarks.
	QuantLinear
)

// QuantizeModeWorkers performs the k-quantization of Definition 4 over the
// pattern matrix: the value range is cut into k buckets of log or linear
// width (see QuantMode) and every cell is assigned to its bucket's
// partition. Empty partitions are dropped. The cell scan is sharded across
// workers: shards cover contiguous stretches of the serial (y, x, t)
// enumeration and per-bucket cell lists are concatenated in shard order,
// so the partitioning — cell order included — is bit-identical to the
// serial scan for every worker count.
func QuantizeModeWorkers(pattern *grid.Matrix, k int, mode QuantMode, workers int) []*Partition {
	if k <= 0 {
		panic(fmt.Sprintf("core: quantization level %d must be positive", k))
	}
	key := func(v float64) float64 { return v }
	if mode == QuantLog {
		key = func(v float64) float64 { return math.Log1p(math.Max(0, v)) }
	}
	lo, hi := quantBounds(pattern.Data(), key, workers)
	span := hi - lo
	n := pattern.Cy * pattern.Cx * pattern.Ct
	// assign resolves the serial scan order: index o walks y, then x, then t.
	assign := func(o int) (cellRef, int) {
		y := o / (pattern.Cx * pattern.Ct)
		rem := o % (pattern.Cx * pattern.Ct)
		x := rem / pattern.Ct
		t := rem % pattern.Ct
		b := 0
		if span > 0 {
			b = int(float64(k) * (key(pattern.At(x, y, t)) - lo) / span)
			if b == k { // the maximum lands in the last bucket
				b = k - 1
			}
		}
		return cellRef{x, y, t}, b
	}
	shards := parallel.Shards(n, workers)
	perShard := make([][][]cellRef, len(shards))
	parallel.ForEachShard(workers, n, func(s int, r parallel.Range) {
		buckets := make([][]cellRef, k)
		for o := r.Lo; o < r.Hi; o++ {
			c, b := assign(o)
			buckets[b] = append(buckets[b], c)
		}
		perShard[s] = buckets
	})
	parts := make([]*Partition, k)
	for i := range parts {
		parts[i] = &Partition{Level: i}
		for s := range shards {
			parts[i].Cells = append(parts[i].Cells, perShard[s][i]...)
		}
	}
	var out []*Partition
	for _, p := range parts {
		if len(p.Cells) == 0 {
			continue
		}
		out = append(out, p)
	}
	parallel.ForEach(workers, len(out), func(i int) {
		out[i].PillarMax = pillarMax(out[i], pattern.Cx)
	})
	return out
}

// quantBounds returns min/max of key(v) over data; min/max reduction is
// exact, so the sharded scan matches the serial one bit for bit.
func quantBounds(data []float64, key func(float64) float64, workers int) (lo, hi float64) {
	shards := parallel.Shards(len(data), workers)
	los := make([]float64, len(shards))
	his := make([]float64, len(shards))
	parallel.ForEachShard(workers, len(data), func(s int, r parallel.Range) {
		l, h := math.Inf(1), math.Inf(-1)
		for _, v := range data[r.Lo:r.Hi] {
			kv := key(v)
			if kv < l {
				l = kv
			}
			if kv > h {
				h = kv
			}
		}
		los[s], his[s] = l, h
	})
	lo, hi = math.Inf(1), math.Inf(-1)
	for s := range shards {
		if los[s] < lo {
			lo = los[s]
		}
		if his[s] > hi {
			hi = his[s]
		}
	}
	return lo, hi
}

// pillarMax computes Theorem 7's sensitivity factor: the maximum number of
// partition cells sharing one xy pillar.
func pillarMax(p *Partition, cx int) int {
	counts := map[int]int{}
	best := 0
	for _, c := range p.Cells {
		key := c.y*cx + c.x
		counts[key]++
		if counts[key] > best {
			best = counts[key]
		}
	}
	return best
}

// sanitizeStep releases the true consumption matrix through the partition
// structure (Algorithm 1, lines 15-22): per partition, the true cell values
// are summed, perturbed with Laplace noise at sensitivity
// PillarMax·cellSens and a Theorem-8 (or uniform, for the ablation) budget
// share, and the noisy total is spread uniformly over the partition's
// cells. Negative released cells are clamped to zero (post-processing).
func sanitizeStep(cons *grid.Matrix, parts []*Partition, cfg Config, cellSens float64, lap *dp.Laplace, acct dp.Scope) *grid.Matrix {
	if cellSens <= 0 {
		panic(fmt.Sprintf("core: non-positive cell sensitivity %v", cellSens))
	}
	sens := make([]float64, len(parts))
	for i, p := range parts {
		sens[i] = float64(p.PillarMax) * cellSens
	}
	var budgets []float64
	if cfg.UniformBudget {
		budgets = dp.AllocateUniform(len(parts), cfg.EpsSanitize)
	} else {
		budgets = dp.AllocateOptimal(sens, cfg.EpsSanitize)
	}
	out := grid.NewMatrix(cons.Cx, cons.Cy, cons.Ct)
	scope := acct.Child("partitions", dp.Sequential)
	// Per-partition true sums are data-parallel: each index writes its own
	// slot, and each partition's cells are summed in their stored order, so
	// the sums match the serial scan bit for bit.
	sums := make([]float64, len(parts))
	parallel.ForEach(cfg.Workers, len(parts), func(i int) {
		var sum float64
		for _, c := range parts[i].Cells {
			sum += cons.At(c.x, c.y, c.t)
		}
		sums[i] = sum
	})
	// Noise is drawn serially in partition order: the Laplace stream is one
	// rng, and its draw order must depend only on the seed.
	shares := make([]float64, len(parts))
	for i, p := range parts {
		noisy := sums[i] + lap.Sample(dp.Scale(sens[i], budgets[i]))
		scope.Spend(budgets[i])
		share := noisy / float64(len(p.Cells))
		if share < 0 {
			share = 0
		}
		shares[i] = share
	}
	// Partitions tile the matrix disjointly, so spreading shares is
	// write-disjoint across partitions.
	parallel.ForEach(cfg.Workers, len(parts), func(i int) {
		for _, c := range parts[i].Cells {
			out.Set(c.x, c.y, c.t, shares[i])
		}
	})
	return out
}

// sanitizePerCell is the no-partitioning ablation: every cell of the
// released horizon gets an equal share of ε_sanitize, composed
// sequentially over time and in parallel over space (Theorem 5), i.e. the
// Identity scheme applied to the release window.
func sanitizePerCell(cons *grid.Matrix, cfg Config, cellSens float64, lap *dp.Laplace, acct dp.Scope) *grid.Matrix {
	perSlice := cfg.EpsSanitize / float64(cons.Ct)
	scale := dp.Scale(cellSens, perSlice)
	out := grid.NewMatrix(cons.Cx, cons.Cy, cons.Ct)
	for t := 0; t < cons.Ct; t++ {
		for y := 0; y < cons.Cy; y++ {
			for x := 0; x < cons.Cx; x++ {
				v := cons.At(x, y, t) + lap.Sample(scale)
				if v < 0 {
					v = 0
				}
				out.Set(x, y, t, v)
			}
		}
	}
	acct.Child("per-cell", dp.Sequential).Spend(cfg.EpsSanitize)
	return out
}
