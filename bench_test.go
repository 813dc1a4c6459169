// Package repro's root benchmark harness regenerates every table and
// figure of the paper's evaluation as a testing.B benchmark. Each bench
// reports the figure's headline quantity via b.ReportMetric (MRE in
// percent, MAE/RMSE, or seconds), so `go test -bench=. -benchmem` emits
// the series the paper plots alongside the usual ns/op. Benchmarks run at
// a reduced scale by default; set STPT_BENCH_SCALE=bench or =paper for
// larger grids (see internal/experiments), and STPT_BENCH_WORKERS=n to
// run sweep cells on an n-worker pool (same results, less wall-clock).
package repro

import (
	"context"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/dp"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/ldp"
	"repro/internal/query"
)

// benchOptions picks the experiment scale from the environment.
// STPT_BENCH_WORKERS sets the sweep worker-pool size (results are
// bit-identical for every count; it only changes wall-clock).
func benchOptions() experiments.Options {
	var o experiments.Options
	switch os.Getenv("STPT_BENCH_SCALE") {
	case "paper":
		o = experiments.Paper()
	case "bench":
		o = experiments.Bench()
	default:
		o = experiments.Quick()
		o.Reps = 1
		o.Epochs = 3
	}
	if n, err := strconv.Atoi(os.Getenv("STPT_BENCH_WORKERS")); err == nil && n > 0 {
		o.Workers = n
	}
	return o
}

// --- Table 2 -----------------------------------------------------------

func BenchmarkTable2Datasets(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable2(context.Background(), o)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("table2 rows")
		}
		b.ReportMetric(rows[0].Measured.Mean, "CER-mean-kWh")
	}
}

// --- Figure 6 ----------------------------------------------------------

func benchFig6(b *testing.B, spec datasets.Spec, layout datasets.Layout) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		row, err := experiments.RunFig6Single(context.Background(), o, spec, layout)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range row.Results {
			if r.Name == "stpt" {
				b.ReportMetric(r.MRE[query.Random], "stpt-MRE%")
			}
			if r.Name == "identity" {
				b.ReportMetric(r.MRE[query.Random], "identity-MRE%")
			}
		}
		b.ReportMetric(experiments.Improvement(row, 0), "improvement%")
	}
}

func BenchmarkFig6CERUniform(b *testing.B) { benchFig6(b, datasets.CER, datasets.Uniform) }
func BenchmarkFig6CERNormal(b *testing.B)  { benchFig6(b, datasets.CER, datasets.Normal) }
func BenchmarkFig6CAUniform(b *testing.B)  { benchFig6(b, datasets.CA, datasets.Uniform) }
func BenchmarkFig6MIUniform(b *testing.B)  { benchFig6(b, datasets.MI, datasets.Uniform) }
func BenchmarkFig6TXUniform(b *testing.B)  { benchFig6(b, datasets.TX, datasets.Uniform) }

// --- Figure 7 ----------------------------------------------------------

func BenchmarkFig7WPO(b *testing.B) {
	o := benchOptions()
	spec := datasets.CER
	d := spec.GenerateDaily(datasets.LosAngeles, o.Cx, o.Cy, o.TTrain+o.Horizon, o.Seed)
	in := baselines.Input{Dataset: d, TTrain: o.TTrain, CellSensitivity: spec.DailyClip()}
	truth := in.Truth()
	qs := query.GenerateSeeded(o.Seed, query.Random, truth.Cx, truth.Cy, truth.Ct, o.Queries)
	wpo := baselines.NewWPO()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel, err := wpo.Release(context.Background(), in, o.EpsPattern+o.EpsSanitize, o.Seed+int64(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(query.Evaluate(truth, rel, qs, 0), "wpo-MRE%")
	}
}

// --- Figure 8 ----------------------------------------------------------

func BenchmarkFig8PatternBudget(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunFig8PatternBudget(context.Background(), o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[0].MAE, "MAE-lowest-budget")
		b.ReportMetric(pts[len(pts)-1].MAE, "MAE-highest-budget")
	}
}

func BenchmarkFig8Quantization(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunFig8Quantization(context.Background(), o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[1].MRE[query.Random], "k4-MRE%")
		b.ReportMetric(pts[len(pts)-1].MRE[query.Random], "k64-MRE%")
	}
}

func BenchmarkFig8RuntimeAll(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFig8Runtime(context.Background(), o)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Name == "stpt" {
				b.ReportMetric(r.Seconds, "stpt-sec")
			}
		}
	}
}

func BenchmarkFig8TreeDepth(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunFig8TreeDepth(context.Background(), o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[0].MAE, "depth0-MAE")
		b.ReportMetric(pts[len(pts)-1].MAE, "deepest-MAE")
	}
}

func BenchmarkFig8BudgetSplit(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunFig8BudgetSplit(context.Background(), o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[0].MRE[query.Random], "split10-MRE%")
		b.ReportMetric(pts[3].MRE[query.Random], "split50-MRE%")
		b.ReportMetric(pts[len(pts)-1].MRE[query.Random], "split90-MRE%")
	}
}

func BenchmarkFig8TotalBudget(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunFig8TotalBudget(context.Background(), o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[0].MRE[query.Random], "eps5-MRE%")
		b.ReportMetric(pts[len(pts)-1].MRE[query.Random], "eps50-MRE%")
	}
}

func BenchmarkFig8Models(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunFig8Models(context.Background(), o)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			b.ReportMetric(p.MRE[query.Random], p.Label+"-MRE%")
		}
	}
}

// --- Figure 9 ----------------------------------------------------------

func BenchmarkFig9Weekday(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows := experiments.RunFig9(o)
		weekendLift := (rows[0].Totals[5] + rows[0].Totals[6]) / 2 /
			((rows[0].Totals[0] + rows[0].Totals[1] + rows[0].Totals[2] + rows[0].Totals[3] + rows[0].Totals[4]) / 5)
		b.ReportMetric(weekendLift, "CER-weekend-lift")
	}
}

// --- Ablations (DESIGN.md §5) ------------------------------------------

func benchAblation(b *testing.B, mutate func(*core.Config)) {
	o := benchOptions()
	spec := datasets.CER
	d := spec.GenerateDaily(datasets.Uniform, o.Cx, o.Cy, o.TTrain+o.Horizon, o.Seed)
	in := baselines.Input{Dataset: d, TTrain: o.TTrain, CellSensitivity: spec.DailyClip()}
	truth := in.Truth()
	qs := query.GenerateSeeded(o.Seed, query.Random, truth.Cx, truth.Cy, truth.Ct, o.Queries)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := o.STPTConfig(spec)
		cfg.Seed = o.Seed + int64(i)
		if mutate != nil {
			mutate(&cfg)
		}
		res, err := core.RunContext(context.Background(), d, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(query.Evaluate(truth, res.Sanitized, qs, 0), "MRE%")
	}
}

func BenchmarkAblationNone(b *testing.B) { benchAblation(b, nil) }
func BenchmarkAblationFlatTraining(b *testing.B) {
	benchAblation(b, func(c *core.Config) { c.FlatTraining = true })
}
func BenchmarkAblationUniformBudget(b *testing.B) {
	benchAblation(b, func(c *core.Config) { c.UniformBudget = true })
}
func BenchmarkAblationNoPartitioning(b *testing.B) {
	benchAblation(b, func(c *core.Config) { c.NoPartitions = true })
}
func BenchmarkAblationPersistence(b *testing.B) {
	benchAblation(b, func(c *core.Config) { c.Model = core.ModelPersistence })
}

func BenchmarkAblationLinearQuantization(b *testing.B) {
	benchAblation(b, func(c *core.Config) { c.Quant = core.QuantLinear })
}
func BenchmarkAblationRawSeeds(b *testing.B) {
	benchAblation(b, func(c *core.Config) { c.RawSeeds = true })
}

// --- Extensions (paper future work) -------------------------------------

func BenchmarkExtensionLDP(b *testing.B) {
	o := benchOptions()
	spec := datasets.CER
	d := spec.GenerateDaily(datasets.Uniform, o.Cx, o.Cy, o.TTrain+o.Horizon, o.Seed)
	in := ldp.Input{Dataset: d, TTrain: o.TTrain, Clip: spec.DailyClip()}
	truth := baselines.Input{Dataset: d, TTrain: o.TTrain, CellSensitivity: spec.DailyClip()}.Truth()
	qs := query.GenerateSeeded(o.Seed, query.Random, truth.Cx, truth.Cy, truth.Ct, o.Queries)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel, err := (ldp.LocalLaplace{}).Release(in, o.EpsPattern+o.EpsSanitize, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(query.Evaluate(truth, rel, qs, 0), "ldp-MRE%")
	}
}

func BenchmarkExtensionBudgetSplitModel(b *testing.B) {
	o := benchOptions()
	cfg := o.STPTConfig(datasets.CER)
	for i := 0; i < b.N; i++ {
		f, err := core.SuggestBudgetSplit(cfg, o.Cx, o.Cy, o.Horizon)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f, "pattern-share")
	}
}

// --- Primitive micro-benchmarks ----------------------------------------

func BenchmarkLaplaceSample(b *testing.B) {
	lap := dp.NewLaplace(rand.New(rand.NewSource(1)))
	for i := 0; i < b.N; i++ {
		_ = lap.Sample(1.5)
	}
}

func BenchmarkSecureLaplaceSample(b *testing.B) {
	s := &dp.SecureLaplace{Bound: 1000}
	for i := 0; i < b.N; i++ {
		_ = s.Sample(10, 1.5)
	}
}

func BenchmarkPrefixSumBuild32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := grid.NewMatrix(32, 32, 120)
	for i := range m.Data() {
		m.Data()[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = grid.NewPrefixSum(m)
	}
}

func BenchmarkPrefixSumQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := grid.NewMatrix(32, 32, 120)
	for i := range m.Data() {
		m.Data()[i] = rng.Float64()
	}
	ps := grid.NewPrefixSum(m)
	qs := query.GenerateSeeded(2, query.Random, 32, 32, 120, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ps.RangeSum(qs[i%len(qs)])
	}
}

func BenchmarkSTPTEndToEnd(b *testing.B) {
	o := benchOptions()
	spec := datasets.CA
	d := spec.GenerateDaily(datasets.Uniform, o.Cx, o.Cy, o.TTrain+o.Horizon, o.Seed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := o.STPTConfig(spec)
		cfg.Seed = int64(i + 1)
		if _, err := core.RunContext(context.Background(), d, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
