// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5): Table 2's dataset summaries, Figure 6's
// STPT-vs-benchmarks MRE comparison, Figure 7's WPO comparison, the nine
// detailed panels of Figure 8, Figure 9's weekday totals, and the
// DESIGN.md ablations. Each experiment has a ctx-first Run function
// returning structured results and a Print helper emitting the same
// rows/series the paper plots. The comparison tables (Figure 6, Figure 7
// and the local-DP and related-work extensions) are declared once and
// share RunComparison and PrintComparison.
package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/grid"
	"repro/internal/journal"
	"repro/internal/ldp"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/query"
	"repro/internal/resilience"
	"repro/internal/timeseries"
)

// Options scales experiments between CI-friendly and paper-faithful runs.
type Options struct {
	Cx, Cy      int
	TTrain      int
	Horizon     int
	Depth       int
	WindowSize  int
	QuantLevels int
	EmbedDim    int
	Hidden      int
	Epochs      int
	EpsPattern  float64
	EpsSanitize float64
	Queries     int // queries per class
	Reps        int // repetitions averaged per data point
	Seed        int64
	// Households overrides the spec's household count when positive
	// (CER's 5000 households are expensive at small scales).
	Households int

	// Workers bounds the worker pool the sweeps run on: independent
	// (dataset, algorithm, rep) cells execute concurrently, each with its
	// own seed derived from the cell's stable identity-independent rep
	// index. Parallelism lives at the cell level only — every cell runs
	// the serial core pipeline — so each cell's value, and therefore every
	// averaged table, is bit-identical for every worker count. The zero
	// value (and 1) runs cells in the historical nested-loop order on the
	// calling goroutine, which is what the crash/resume checkpoint
	// semantics pin down.
	Workers int

	// Checkpoint, when non-nil, records every completed (dataset,
	// algorithm, rep) cell so a killed sweep resumes at the last finished
	// cell instead of recomputing hours of work. Cells are keyed by the
	// experiment's stable identity (e.g. "fig6/CER/uniform/stpt/rep3"),
	// never by wall-clock, so a resumed run reproduces the uninterrupted
	// result bit for bit — at any worker count, since cell values don't
	// depend on Workers. A file is bound to the options that produced its
	// cells (BindCheckpoint). nil disables checkpointing.
	Checkpoint *journal.Checkpoint
	// Retry governs baseline-release retries on retryable failures; the
	// zero value keeps the historical fail-fast behaviour. (STPT runs
	// carry their own policy inside core.Config.)
	Retry resilience.Policy

	// shard, when set, limits a sweep to the cells it owns: the others
	// are neither computed nor recorded, so the sweep's averages are
	// partial (RunShard).
	shard *Shard
}

// Quick returns a configuration that exercises every code path in seconds.
func Quick() Options {
	return Options{
		Cx: 16, Cy: 16, TTrain: 40, Horizon: 48,
		Depth: 3, WindowSize: 4, QuantLevels: 8,
		EmbedDim: 8, Hidden: 8, Epochs: 4,
		EpsPattern: 10, EpsSanitize: 20,
		Queries: 100, Reps: 2, Seed: 1, Households: 300,
	}
}

// Paper returns the testbed of Appendix C: 32x32 grid, 100 training and
// 120 released points, ε_tot = 30 split 10/20, 300 queries, 10
// repetitions. Network sizes follow the paper (embed 128, hidden 64,
// 20 epochs); expect hours of CPU time at this scale.
func Paper() Options {
	return Options{
		Cx: 32, Cy: 32, TTrain: 100, Horizon: 120,
		Depth: 5, WindowSize: 6, QuantLevels: 8,
		EmbedDim: 128, Hidden: 64, Epochs: 20,
		EpsPattern: 10, EpsSanitize: 20,
		Queries: 300, Reps: 10, Seed: 1,
	}
}

// Bench returns a middle ground used by the benchmark harness: paper grid
// and horizon, reduced network and repetition count so a full figure
// regenerates in minutes on CPU.
func Bench() Options {
	o := Paper()
	o.EmbedDim, o.Hidden, o.Epochs = 16, 16, 6
	o.Reps = 3
	return o
}

// STPTConfig translates the options into a core.Config for the spec.
func (o Options) STPTConfig(spec datasets.Spec) core.Config {
	cfg := core.DefaultConfig()
	cfg.EpsPattern = o.EpsPattern
	cfg.EpsSanitize = o.EpsSanitize
	cfg.TTrain = o.TTrain
	cfg.Depth = o.Depth
	cfg.WindowSize = o.WindowSize
	cfg.QuantLevels = o.QuantLevels
	cfg.EmbedDim = o.EmbedDim
	cfg.Hidden = o.Hidden
	cfg.Train = nn.TrainConfig{Epochs: o.Epochs, BatchSize: 32, ClipNorm: 5}
	cfg.ClipFactor = spec.DailyClip()
	cfg.Seed = o.Seed
	return cfg
}

// generate builds the dataset for a spec/layout at this scale, at the
// paper's day granularity (TTrain and Horizon count days).
func (o Options) generate(spec datasets.Spec, layout datasets.Layout) *timeseries.Dataset {
	if o.Households > 0 && o.Households < spec.Households {
		spec.Households = o.Households
	}
	return spec.GenerateDaily(layout, o.Cx, o.Cy, o.TTrain+o.Horizon, o.Seed)
}

// AlgResult is one algorithm's utility on one dataset/layout.
type AlgResult struct {
	Name    string
	MRE     map[query.Class]float64
	Seconds float64
}

// evalRelease measures a release against the truth on pre-drawn queries.
func evalRelease(truth, release *grid.Matrix, qs map[query.Class][]grid.Query) map[query.Class]float64 {
	out := make(map[query.Class]float64, len(qs))
	for c, queries := range qs {
		out[c] = query.Evaluate(truth, release, queries, 0)
	}
	return out
}

// drawQueries samples each workload class once, shared by all algorithms
// on a dataset (as the paper does).
func (o Options) drawQueries(truth *grid.Matrix) map[query.Class][]grid.Query {
	out := make(map[query.Class][]grid.Query, 3)
	for i, c := range query.Classes() {
		out[c] = query.GenerateSeeded(o.Seed+int64(100+i), c, truth.Cx, truth.Cy, truth.Ct, o.Queries)
	}
	return out
}

// mreCell is the checkpoint encoding of one rep's per-class MRE (JSON
// object keys must be strings, query.Class is an int).
type mreCell struct {
	MRE map[string]float64 `json:"mre"`
}

func encodeMRE(m map[query.Class]float64) mreCell {
	out := mreCell{MRE: make(map[string]float64, len(m))}
	for c, v := range m {
		out.MRE[c.String()] = v
	}
	return out
}

// decode maps class names back; unknown names mean a stale checkpoint
// cell, reported as a miss by the caller.
func (c mreCell) decode() (map[query.Class]float64, bool) {
	out := make(map[query.Class]float64, len(c.MRE))
	for name, v := range c.MRE {
		found := false
		for _, cl := range query.Classes() {
			if cl.String() == name {
				out[cl] = v
				found = true
				break
			}
		}
		if !found {
			return nil, false
		}
	}
	return out, true
}

// lookupRep fetches one rep's checkpointed MRE; a miss (or stale cell)
// returns nil.
func (o Options) lookupRep(key string) map[query.Class]float64 {
	if key == "" {
		return nil
	}
	var cell mreCell
	if !o.Checkpoint.Lookup(key, &cell) {
		return nil
	}
	m, ok := cell.decode()
	if !ok {
		return nil
	}
	return m
}

// recordRep persists one rep's cell, after giving the FaultCheckpoint
// injection point a chance to simulate a crash-before-write.
func (o Options) recordRep(ctx context.Context, key string, cell any) error {
	if key == "" || o.Checkpoint == nil {
		return nil
	}
	if err := resilience.Fire(ctx, resilience.FaultCheckpoint, key); err != nil {
		return err
	}
	return o.Checkpoint.Record(key, cell)
}

// algCells is one result slot of a sweep: an algorithm's display name,
// the stable checkpoint prefix its rep cells are keyed under (repKey;
// "" disables checkpointing) and the per-rep compute function. run must
// be safe to call from multiple goroutines: each rep derives its own
// seed and owns its own state.
type algCells struct {
	name   string
	prefix string
	run    func(ctx context.Context, rep int) (map[query.Class]float64, error)
}

// runCells executes every (algorithm, rep) cell on the worker pool and
// averages each algorithm's reps in rep order. Cells are independent:
// each looks up and records its own checkpoint entry and writes a private
// result slot. At Workers <= 1 cells run in the historical nested-loop
// order (algorithm-major, rep-minor) on the calling goroutine, stopping
// at the first error — the crash/resume semantics the checkpoint tests
// pin down. At Workers = N every cell still runs the same serial
// pipeline, so the averaged tables are bit-identical for every worker
// count; a multi-failure sweep reports the lowest-index cell's error.
func (o Options) runCells(ctx context.Context, algs []algCells) ([]AlgResult, error) {
	reps := o.Reps
	n := len(algs) * reps
	vals := make([]map[query.Class]float64, n)
	secs := make([]float64, n)
	fresh := make([]bool, n)
	err := parallel.Do(ctx, o.Workers, n, func(i int) error {
		a, rep := i/reps, i%reps
		key := repKey(algs[a].prefix, rep)
		if o.shard != nil && !o.shard.Owns(key) {
			return nil
		}
		if cached := o.lookupRep(key); cached != nil {
			vals[i] = cached
			return nil
		}
		start := time.Now()
		ev, err := algs[a].run(ctx, rep)
		if err != nil {
			return fmt.Errorf("%s/rep%d: %w", algs[a].name, rep, err)
		}
		secs[i] = time.Since(start).Seconds()
		fresh[i] = true
		vals[i] = ev
		return o.recordRep(ctx, key, encodeMRE(ev))
	})
	if err != nil {
		return nil, err
	}
	out := make([]AlgResult, len(algs))
	for a := range algs {
		acc := map[query.Class]float64{}
		computed := 0
		var total float64
		for rep := 0; rep < reps; rep++ {
			i := a*reps + rep
			for c, v := range vals[i] {
				acc[c] += v
			}
			if fresh[i] {
				computed++
				total += secs[i]
			}
		}
		for c := range acc {
			acc[c] /= float64(reps)
		}
		s := 0.0
		if computed > 0 {
			s = total / float64(computed)
		}
		out[a] = AlgResult{Name: algs[a].name, MRE: acc, Seconds: s}
	}
	return out, nil
}

// rowInput is what every cell of one sweep row shares: the generated
// dataset (inside the baseline input), its truth matrix and one query
// draw, as the paper scores all algorithms on a dataset.
type rowInput struct {
	spec  datasets.Spec
	in    baselines.Input
	truth *grid.Matrix
	qs    map[query.Class][]grid.Query
}

// newRow generates a row's shared inputs for a spec/layout at this scale.
func (o Options) newRow(spec datasets.Spec, layout datasets.Layout) *rowInput {
	in := baselines.Input{Dataset: o.generate(spec, layout), TTrain: o.TTrain, CellSensitivity: spec.DailyClip()}
	truth := in.Truth()
	return &rowInput{spec: spec, in: in, truth: truth, qs: o.drawQueries(truth)}
}

// column is one slot of a sweep row: a display name and the release one
// rep of it produces from the row's shared inputs.
type column struct {
	name    string
	release func(ctx context.Context, o Options, r *rowInput, rep int) (*grid.Matrix, error)
}

// cells builds a column's slot on a row: rep cells keyed under prefix,
// each scoring its release against the row's truth on the shared queries.
func (o Options) cells(r *rowInput, col column, prefix string) algCells {
	return algCells{name: col.name, prefix: prefix, run: func(ctx context.Context, rep int) (map[query.Class]float64, error) {
		rel, err := col.release(ctx, o, r, rep)
		if err != nil {
			return nil, err
		}
		return evalRelease(r.truth, rel, r.qs), nil
	}}
}

// runSTPT runs one rep of the full STPT pipeline on d: the options'
// config for spec, altered by mut (nil keeps it), on a private copy
// seeded with the rep.
func (o Options) runSTPT(ctx context.Context, spec datasets.Spec, d *timeseries.Dataset, mut func(*core.Config), rep int) (*core.Result, error) {
	cfg := o.STPTConfig(spec)
	if mut != nil {
		mut(&cfg)
	}
	cfg.Seed = o.Seed + int64(rep)
	return core.RunContext(ctx, d, cfg)
}

// stptColumn is an STPT slot whose config mut alters (nil keeps it).
func stptColumn(name string, mut func(*core.Config)) column {
	return column{name: name, release: func(ctx context.Context, o Options, r *rowInput, rep int) (*grid.Matrix, error) {
		res, err := o.runSTPT(ctx, r.spec, r.in.Dataset, mut, rep)
		if err != nil {
			return nil, err
		}
		return res.Sanitized, nil
	}}
}

// baselineColumns makes one slot per baseline, with o.Retry-governed
// retries of retryable release failures (each retry draws a jittered
// seed).
func baselineColumns(algs ...baselines.Algorithm) []column {
	cols := make([]column, len(algs))
	for i, alg := range algs {
		cols[i] = column{name: alg.Name(), release: func(ctx context.Context, o Options, r *rowInput, rep int) (*grid.Matrix, error) {
			var rel *grid.Matrix
			err := resilience.Retry(ctx, o.Retry, func(_ int, seedOffset int64) error {
				var rerr error
				rel, rerr = baselines.ReleaseContext(ctx, alg, r.in, o.EpsPattern+o.EpsSanitize, o.Seed+int64(rep)+seedOffset)
				return rerr
			})
			return rel, err
		}}
	}
	return cols
}

// ldpColumn is a local-DP mechanism's slot: households perturb their own
// series before collection, under the spec's clip bound.
func ldpColumn(m ldp.Mechanism) column {
	return column{name: m.Name(), release: func(_ context.Context, o Options, r *rowInput, rep int) (*grid.Matrix, error) {
		lin := ldp.Input{Dataset: r.in.Dataset, TTrain: r.in.TTrain, Clip: r.in.CellSensitivity}
		return m.Release(lin, o.EpsPattern+o.EpsSanitize, o.Seed+int64(rep))
	}}
}

// repKey appends the rep index to a checkpoint prefix ("" stays "").
func repKey(prefix string, rep int) string {
	if prefix == "" {
		return ""
	}
	return fmt.Sprintf("%s/rep%d", prefix, rep)
}

// printMRETable renders algorithm rows with per-class columns.
func printMRETable(w io.Writer, title string, results []AlgResult) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "  %-14s %12s %12s %12s\n", "algorithm", "random MRE%", "small MRE%", "large MRE%")
	for _, r := range results {
		fmt.Fprintf(w, "  %-14s %12.2f %12.2f %12.2f\n",
			r.Name, r.MRE[query.Random], r.MRE[query.Small], r.MRE[query.Large])
	}
}
