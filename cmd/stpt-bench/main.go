// Command stpt-bench regenerates the paper's tables and figures. Each
// experiment prints the same rows or series the paper plots.
//
// Usage:
//
//	stpt-bench -exp fig6 -scale quick
//	stpt-bench -exp all -scale bench -workers 8
//	stpt-bench -exp fig6-single -dataset CER -layout uniform
//	stpt-bench -exp all -scale quick -json BENCH_PR2.json
//	stpt-bench -exp fig6 -scale paper -shard 0/4 -checkpoint part-0
//
// Scales: quick (seconds, small grid), bench (paper grid, reduced nets),
// paper (full Appendix C testbed; hours on CPU).
//
// -workers runs independent (dataset, algorithm, rep) sweep cells
// concurrently; tables are bit-identical for every worker count. -json
// writes a benchmark-regression record (per-experiment wall-clock ns and
// headline metrics) for CI to diff across commits.
//
// -shard i/n computes only shard i of n of a comparison sweep's cells
// into its own -checkpoint file and prints no table; a shard that dies
// resumes from its file. Run the n shards anywhere, then reduce with
// `cat part-* > all` and the same command without -shard and with
// -checkpoint all: the tables are bit-identical to a serial run.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/internal/datasets"
	"repro/internal/experiments"
	"repro/internal/journal"
	"repro/internal/parallel"
	"repro/internal/query"
	"repro/internal/resilience"
)

// benchRecord is one experiment's entry in the -json regression file.
type benchRecord struct {
	Ns      int64              `json:"ns"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// benchReport is the -json file layout. Maps marshal with sorted keys,
// so the file is deterministic given deterministic metrics.
type benchReport struct {
	Scale       string                 `json:"scale"`
	Workers     int                    `json:"workers"`
	Reps        int                    `json:"reps"`
	Seed        int64                  `json:"seed"`
	Experiments map[string]benchRecord `json:"experiments"`
	TotalNs     int64                  `json:"total_ns"`
}

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment: table2|fig6|fig6-single|fig7|fig8ab|fig8c|fig8d|fig8ef|fig8g|fig8h|fig8i|fig9|ablations|ldp|extended|all")
		scale      = flag.String("scale", "quick", "scale: quick|bench|paper")
		dataset    = flag.String("dataset", "CER", "dataset for fig6-single: CER|CA|MI|TX")
		layout     = flag.String("layout", "uniform", "layout for fig6-single: uniform|normal|losangeles")
		seed       = flag.Int64("seed", 1, "base random seed")
		reps       = flag.Int("reps", 0, "override repetition count (0 keeps the scale default)")
		timeout    = flag.Duration("timeout", 0, "abort the sweep after this duration (0 = no limit)")
		checkpoint = flag.String("checkpoint", "", "checkpoint file: completed cells are skipped on restart")
		workers    = flag.Int("workers", 0, "worker pool size for concurrent sweep cells (0 = GOMAXPROCS; 1 = the historical serial order)")
		jsonOut    = flag.String("json", "", "write a benchmark-regression JSON record (ns + headline metrics per experiment) to this path")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this path")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile (taken after the sweep) to this path")
		compare    = flag.Bool("compare", false, "compare two -json records (old.json new.json) instead of running a sweep; exits 1 on regression")
		maxRegress = flag.Float64("max-regress", 1.10, "with -compare: fail when any experiment's ns ratio exceeds this (<= 0 disables the ns gate)")
		metricTol  = flag.Float64("metric-tol", 0, "with -compare: allowed relative drift per metric (0 = bit-identical)")
		noiseFloor = flag.Duration("noise-floor", 200*time.Millisecond, "with -compare: experiments faster than this on both sides are never ns-gated")
		shard      = flag.String("shard", "", "i/n: compute only shard i of n of a comparison sweep's cells into -checkpoint, printing no table; reduce with cat and a run without -shard")
	)
	flag.Parse()

	// Compare mode: stpt-bench -compare old.json new.json. No sweep runs;
	// the process exits non-zero on an ns regression or metric drift.
	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: stpt-bench -compare old.json new.json")
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1), *maxRegress, *metricTol, noiseFloor.Nanoseconds()))
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatalf("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	var opts experiments.Options
	switch *scale {
	case "quick":
		opts = experiments.Quick()
	case "bench":
		opts = experiments.Bench()
	case "paper":
		opts = experiments.Paper()
	default:
		fatalf("unknown scale %q", *scale)
	}
	opts.Seed = *seed
	if *reps > 0 {
		opts.Reps = *reps
	}
	opts.Workers = parallel.Workers(*workers)
	opts.Retry = resilience.DefaultPolicy()
	var sh experiments.Shard
	if *shard != "" {
		var err error
		sh, err = experiments.ParseShard(*shard)
		if err == nil {
			err = experiments.CheckShardable(*exp, *dataset, *layout)
		}
		if err != nil {
			fatalf("-shard: %v", err)
		}
		if *checkpoint == "" || *jsonOut != "" {
			fatalf("-shard writes its cells to -checkpoint (required) and prints no table, so it takes no -json")
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// The run list is declared before the checkpoint is bound, so an
	// unknown -exp is refused without creating the -checkpoint file. Each
	// experiment reads opts when it runs, after the binding.
	w := os.Stdout
	var names []string
	var fns []func() (map[string]float64, error)
	run := func(name string, fn func() (map[string]float64, error)) {
		names = append(names, name)
		fns = append(fns, fn)
	}

	// The comparison tables share one runner, printer and headline metric.
	comparison := func(name string) {
		run(name, func() (map[string]float64, error) {
			rows, err := experiments.RunComparison(ctx, opts, name)
			if err != nil {
				return nil, err
			}
			experiments.PrintComparison(w, name, rows)
			return stptMRE(rows), nil
		})
	}

	run("table2", func() (map[string]float64, error) {
		rows, err := experiments.RunTable2(ctx, opts)
		if err != nil {
			return nil, err
		}
		experiments.PrintTable2(w, rows)
		return map[string]float64{"cer_mean_kwh": rows[0].Measured.Mean}, nil
	})
	run("fig9", func() (map[string]float64, error) {
		rows := experiments.RunFig9(opts)
		experiments.PrintFig9(w, rows)
		weekend := (rows[0].Totals[5] + rows[0].Totals[6]) / 2
		weekday := (rows[0].Totals[0] + rows[0].Totals[1] + rows[0].Totals[2] + rows[0].Totals[3] + rows[0].Totals[4]) / 5
		return map[string]float64{"cer_weekend_lift": weekend / weekday}, nil
	})
	comparison("fig6")
	run("fig6-single", func() (map[string]float64, error) {
		spec, err := datasets.ByName(*dataset)
		if err != nil {
			return nil, err
		}
		lay, err := datasets.ParseLayout(*layout)
		if err != nil {
			return nil, err
		}
		row, err := experiments.RunFig6Single(ctx, opts, spec, lay)
		if err != nil {
			return nil, err
		}
		experiments.PrintComparison(w, "fig6", []experiments.Row{row})
		return stptMRE([]experiments.Row{row}), nil
	})
	comparison("fig7")
	run("fig8ab", func() (map[string]float64, error) {
		pts, err := experiments.RunFig8PatternBudget(ctx, opts)
		if err != nil {
			return nil, err
		}
		experiments.PrintSweepPattern(w, "Figure 8(a,b): pattern error vs per-datapoint budget", pts)
		return sweepPattern(pts), nil
	})
	run("fig8c", func() (map[string]float64, error) {
		pts, err := experiments.RunFig8Quantization(ctx, opts)
		if err != nil {
			return nil, err
		}
		experiments.PrintSweepMRE(w, "Figure 8(c): impact of quantization levels", pts)
		return sweepMRE(pts), nil
	})
	run("fig8d", func() (map[string]float64, error) {
		rows, err := experiments.RunFig8Runtime(ctx, opts)
		if err != nil {
			return nil, err
		}
		experiments.PrintRuntimes(w, rows)
		m := map[string]float64{}
		for _, r := range rows {
			m["seconds_"+r.Name] = r.Seconds
		}
		return m, nil
	})
	run("fig8ef", func() (map[string]float64, error) {
		pts, err := experiments.RunFig8TreeDepth(ctx, opts)
		if err != nil {
			return nil, err
		}
		experiments.PrintSweepPattern(w, "Figure 8(e,f): pattern error vs quadtree depth", pts)
		return sweepPattern(pts), nil
	})
	run("fig8g", func() (map[string]float64, error) {
		pts, err := experiments.RunFig8BudgetSplit(ctx, opts)
		if err != nil {
			return nil, err
		}
		experiments.PrintSweepMRE(w, "Figure 8(g): budget share for pattern recognition", pts)
		return sweepMRE(pts), nil
	})
	run("fig8h", func() (map[string]float64, error) {
		pts, err := experiments.RunFig8TotalBudget(ctx, opts)
		if err != nil {
			return nil, err
		}
		experiments.PrintSweepMRE(w, "Figure 8(h): total privacy budget", pts)
		return sweepMRE(pts), nil
	})
	run("fig8i", func() (map[string]float64, error) {
		pts, err := experiments.RunFig8Models(ctx, opts)
		if err != nil {
			return nil, err
		}
		experiments.PrintSweepMRE(w, "Figure 8(i): distinct ML models", pts)
		return sweepMRE(pts), nil
	})
	comparison("ldp")
	comparison("extended")
	run("ablations", func() (map[string]float64, error) {
		rows, err := experiments.RunAblations(ctx, opts)
		if err != nil {
			return nil, err
		}
		experiments.PrintAblations(w, rows)
		m := map[string]float64{}
		for _, r := range rows {
			m["mre_random_stpt"] = r.Full.MRE[query.Random]
			m["mre_random_"+r.Name] = r.Ablated.MRE[query.Random]
		}
		return m, nil
	})

	if *exp != "all" && !slices.Contains(names, *exp) {
		fatalf("unknown -exp %q (valid: all, %s)", *exp, strings.Join(names, ", "))
	}
	if *checkpoint != "" {
		ck, err := journal.OpenCheckpoint(*checkpoint)
		if err != nil {
			fatalf("%v", err)
		}
		defer ck.Close() //nolint:errcheck // every recorded cell is already durable
		n, err := experiments.BindCheckpoint(ck, opts)
		if err != nil {
			fatalf("%s: %v (use a fresh -checkpoint file)", *checkpoint, err)
		}
		if n > 0 {
			fmt.Fprintf(os.Stderr, "stpt-bench: resuming from %s (%d completed cells)\n", *checkpoint, n)
		}
		opts.Checkpoint = ck
	}

	start := time.Now()
	fail := func(name string, err error) {
		if errors.Is(err, context.DeadlineExceeded) {
			fatalf("%s: exceeded -timeout %s%s", name, *timeout, resumeHint(*checkpoint))
		}
		if errors.Is(err, context.Canceled) {
			fatalf("%s: interrupted%s", name, resumeHint(*checkpoint))
		}
		fatalf("%s: %v", name, err)
	}
	if *shard != "" {
		n, err := experiments.RunShard(ctx, opts, *exp, *dataset, *layout, sh)
		if err != nil {
			fail(*exp+" shard "+*shard, err)
		}
		fmt.Fprintf(os.Stderr, "stpt-bench: shard %s of %s: %d cells computed into %s in %s\n",
			*shard, *exp, n, *checkpoint, time.Since(start).Round(time.Millisecond))
		return
	}

	records := map[string]benchRecord{}
	for i, name := range names {
		if *exp != "all" && *exp != name {
			continue
		}
		expStart := time.Now()
		metrics, err := fns[i]()
		if err != nil {
			fail(name, err)
		}
		records[name] = benchRecord{Ns: time.Since(expStart).Nanoseconds(), Metrics: metrics}
	}
	fmt.Fprintf(w, "done in %s (scale %s, exp %s, %d workers)\n",
		time.Since(start).Round(time.Millisecond), *scale, *exp, opts.Workers)

	if *jsonOut != "" {
		report := benchReport{
			Scale: *scale, Workers: opts.Workers, Reps: opts.Reps, Seed: opts.Seed,
			Experiments: records, TotalNs: time.Since(start).Nanoseconds(),
		}
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(*jsonOut, append(buf, '\n'), 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "stpt-bench: wrote regression record to %s\n", *jsonOut)
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatalf("%v", err)
		}
		runtime.GC() // settle the heap so the profile shows retained allocations
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatalf("memprofile: %v", err)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "stpt-bench: wrote heap profile to %s\n", *memProfile)
	}
}

// stptMRE averages the STPT slot's per-class MRE over the given rows of
// a comparison table — the headline regression metric per figure.
func stptMRE(rows []experiments.Row) map[string]float64 {
	m := map[string]float64{}
	n := 0
	for _, row := range rows {
		for _, r := range row.Results {
			if r.Name != "stpt" {
				continue
			}
			for c, v := range r.MRE {
				m["stpt_mre_"+c.String()] += v
			}
			n++
		}
	}
	for k := range m {
		m[k] /= float64(n)
	}
	return m
}

// sweepMRE averages per-class MRE across a sweep's points.
func sweepMRE(pts []experiments.SweepPoint) map[string]float64 {
	m := map[string]float64{}
	for _, p := range pts {
		for c, v := range p.MRE {
			m["mre_"+c.String()] += v
		}
	}
	for k := range m {
		m[k] /= float64(len(pts))
	}
	return m
}

// sweepPattern averages MAE/RMSE across a sweep's points.
func sweepPattern(pts []experiments.SweepPoint) map[string]float64 {
	var mae, rmse float64
	for _, p := range pts {
		mae += p.MAE
		rmse += p.RMSE
	}
	n := float64(len(pts))
	return map[string]float64{"mae": mae / n, "rmse": rmse / n}
}

// resumeHint tells an interrupted user how to pick the sweep back up.
func resumeHint(checkpoint string) string {
	if checkpoint == "" {
		return " (no -checkpoint set; completed work is lost)"
	}
	return fmt.Sprintf(" (progress saved to %s; rerun with the same -checkpoint to resume)", checkpoint)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "stpt-bench: "+format+"\n", args...)
	os.Exit(1)
}
