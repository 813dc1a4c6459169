package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/parallel"
	"repro/internal/query"
	"repro/internal/timeseries"
)

// patternCell is the checkpoint encoding of one rep's pattern errors
// (the Figure 8 a/b/e/f sweeps).
type patternCell struct {
	MAE  float64 `json:"mae"`
	RMSE float64 `json:"rmse"`
}

// fig8Spec is the dataset the detailed panels run on; the paper uses CER.
func fig8Spec() datasets.Spec { return datasets.CER }

// SweepPoint is one x/y pair of a Figure 8 sweep.
type SweepPoint struct {
	X     float64
	Label string
	// MAE/RMSE are pattern-recognition errors (panels a, b, e, f).
	MAE, RMSE float64
	// MRE holds per-class query error (panels c, g, h, i).
	MRE map[query.Class]float64
}

// stptVariant is one STPT configuration of a Figure 8 panel or the
// ablations: where it plots, where its rep cells are checkpointed
// ("<key>/rep<N>") and how it alters the options' config.
type stptVariant struct {
	x     float64
	label string
	key   string
	mut   func(*core.Config)
}

// scoreVariants scores STPT variants by query MRE on the Figure 8 dataset
// (CER, uniform layout), sharing one dataset, truth and query draw; every
// (variant, rep) cell runs on one worker pool. Results carry the
// variants' labels as names.
func (o Options) scoreVariants(ctx context.Context, panel string, vs []stptVariant) ([]AlgResult, error) {
	r := o.newRow(fig8Spec(), datasets.Uniform)
	algs := make([]algCells, len(vs))
	for i, v := range vs {
		algs[i] = o.cells(r, stptColumn(v.label, v.mut), v.key)
	}
	results, err := o.runCells(ctx, algs)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", panel, err)
	}
	return results, nil
}

// mrePanel scores an MRE panel's variants (c, g, h, i) as sweep points.
func (o Options) mrePanel(ctx context.Context, panel string, vs []stptVariant) ([]SweepPoint, error) {
	results, err := o.scoreVariants(ctx, panel, vs)
	if err != nil {
		return nil, err
	}
	out := make([]SweepPoint, len(vs))
	for i, v := range vs {
		out[i] = SweepPoint{X: v.x, Label: v.label, MRE: results[i].MRE}
	}
	return out, nil
}

// patternPoints measures STPT variants' pattern-recognition error on d:
// every (variant, rep) cell runs on one worker pool, checkpointed under
// the variant's key, and each variant's reps are averaged in rep order,
// so the points are bit-identical for every worker count. fail maps a
// failed run to the error the panel reports.
func (o Options) patternPoints(ctx context.Context, d *timeseries.Dataset, vs []stptVariant, fail func(stptVariant, error) error) ([]SweepPoint, error) {
	cells := make([]patternCell, len(vs)*o.Reps)
	err := parallel.Do(ctx, o.Workers, len(cells), func(i int) error {
		v, rep := vs[i/o.Reps], i%o.Reps
		key := repKey(v.key, rep)
		var cell patternCell
		if o.Checkpoint.Lookup(key, &cell) {
			cells[i] = cell
			return nil
		}
		res, err := o.runSTPT(ctx, fig8Spec(), d, v.mut, rep)
		if err != nil {
			return fail(v, err)
		}
		cells[i] = patternCell{MAE: res.PatternMAE, RMSE: res.PatternRMSE}
		return o.recordRep(ctx, key, cells[i])
	})
	if err != nil {
		return nil, err
	}
	out := make([]SweepPoint, len(vs))
	for vi, v := range vs {
		var mae, rmse float64
		for _, c := range cells[vi*o.Reps : (vi+1)*o.Reps] {
			mae += c.MAE
			rmse += c.RMSE
		}
		out[vi] = SweepPoint{X: v.x, Label: v.label, MAE: mae / float64(o.Reps), RMSE: rmse / float64(o.Reps)}
	}
	return out, nil
}

// RunFig8PatternBudget regenerates Figures 8(a, b): pattern MAE/RMSE as
// the per-training-datapoint budget ε_pattern/TTrain varies while the
// sanitisation budget stays fixed. All (budget point, rep) cells run on
// one worker pool.
func RunFig8PatternBudget(ctx context.Context, o Options) ([]SweepPoint, error) {
	var vs []stptVariant
	for _, pp := range []float64{0.01, 0.05, 0.1, 0.2, 0.5} {
		vs = append(vs, stptVariant{x: pp, label: fmt.Sprintf("%.2f", pp), key: fmt.Sprintf("fig8ab/pp%g", pp),
			mut: func(c *core.Config) { c.EpsPattern = pp * float64(o.TTrain) }})
	}
	return o.patternPoints(ctx, o.generate(fig8Spec(), datasets.Uniform), vs, func(v stptVariant, err error) error {
		return fmt.Errorf("fig8ab ε/point=%v: %w", v.x, err)
	})
}

// RunFig8Quantization regenerates Figure 8(c): query MRE as the number of
// quantization levels k varies.
func RunFig8Quantization(ctx context.Context, o Options) ([]SweepPoint, error) {
	var vs []stptVariant
	for _, k := range []int{2, 4, 8, 16, 32, 64} {
		vs = append(vs, stptVariant{x: float64(k), label: fmt.Sprintf("k=%d", k), key: fmt.Sprintf("fig8c/k%d", k),
			mut: func(c *core.Config) { c.QuantLevels = k }})
	}
	return o.mrePanel(ctx, "fig8c", vs)
}

// RuntimeResult is one algorithm's wall-clock time (Figure 8(d)).
type RuntimeResult struct {
	Name    string
	Seconds float64
}

// RunFig8Runtime regenerates Figure 8(d): end-to-end runtime of every
// algorithm on the same dataset. Runtime measurements are deliberately
// not checkpointed: a resumed timing is not the quantity the panel
// plots. The panel also deliberately ignores o.Workers — algorithms are
// timed one at a time on the serial pipeline so the wall-clock
// comparison isn't distorted by co-scheduling.
func RunFig8Runtime(ctx context.Context, o Options) ([]RuntimeResult, error) {
	spec := fig8Spec()
	d := o.generate(spec, datasets.Uniform)
	in := baselines.Input{Dataset: d, TTrain: o.TTrain, CellSensitivity: spec.DailyClip()}
	var out []RuntimeResult

	start := time.Now()
	cfg := o.STPTConfig(spec)
	if _, err := core.RunContext(ctx, d, cfg); err != nil {
		return nil, err
	}
	out = append(out, RuntimeResult{Name: "stpt", Seconds: time.Since(start).Seconds()})

	for _, alg := range append(baselines.Registry(), baselines.NewWPO()) {
		start := time.Now()
		if _, err := baselines.ReleaseContext(ctx, alg, in, o.EpsPattern+o.EpsSanitize, o.Seed); err != nil {
			return nil, fmt.Errorf("fig8d %s: %w", alg.Name(), err)
		}
		out = append(out, RuntimeResult{Name: alg.Name(), Seconds: time.Since(start).Seconds()})
	}
	return out, nil
}

// errDepthInfeasible marks a depth whose segments undercut the window
// size — structurally impossible at the current scale, skipped rather
// than failed.
var errDepthInfeasible = errors.New("depth infeasible at this scale")

// RunFig8TreeDepth regenerates Figures 8(e, f): pattern MAE/RMSE as the
// quadtree depth varies. Depths stay sequential — whether a depth is
// feasible gates whether its point appears at all — but the reps within
// each depth run on the worker pool.
func RunFig8TreeDepth(ctx context.Context, o Options) ([]SweepPoint, error) {
	d := o.generate(fig8Spec(), datasets.Uniform)
	maxDepth := 0
	for s := min(o.Cx, o.Cy); s > 1; s >>= 1 {
		maxDepth++
	}
	infeasible := func(_ stptVariant, err error) error {
		if ctx.Err() != nil {
			return err
		}
		return fmt.Errorf("%w: %v", errDepthInfeasible, err)
	}
	var out []SweepPoint
	for depth := 0; depth <= maxDepth && depth < o.TTrain; depth++ {
		pts, err := o.patternPoints(ctx, d, []stptVariant{{
			x: float64(depth), label: fmt.Sprintf("depth=%d", depth), key: fmt.Sprintf("fig8ef/depth%d", depth),
			mut: func(c *core.Config) { c.Depth = depth },
		}}, infeasible)
		if err != nil {
			if errors.Is(err, errDepthInfeasible) && ctx.Err() == nil {
				continue
			}
			return nil, err
		}
		out = append(out, pts...)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("fig8ef: no feasible depth at this scale")
	}
	return out, nil
}

// RunFig8BudgetSplit regenerates Figure 8(g): query MRE as the share of
// ε_tot given to pattern recognition varies, total held constant.
func RunFig8BudgetSplit(ctx context.Context, o Options) ([]SweepPoint, error) {
	total := o.EpsPattern + o.EpsSanitize
	var vs []stptVariant
	for _, f := range []float64{0.1, 0.2, 0.33, 0.5, 0.67, 0.8, 0.9} {
		vs = append(vs, stptVariant{x: f, label: fmt.Sprintf("%.0f%%", 100*f), key: fmt.Sprintf("fig8g/f%g", f),
			mut: func(c *core.Config) {
				c.EpsPattern = f * total
				c.EpsSanitize = (1 - f) * total
			}})
	}
	return o.mrePanel(ctx, "fig8g", vs)
}

// RunFig8TotalBudget regenerates Figure 8(h): query MRE as ε_tot varies
// with the pattern/sanitize ratio fixed at the paper's 1:2.
func RunFig8TotalBudget(ctx context.Context, o Options) ([]SweepPoint, error) {
	var vs []stptVariant
	for _, tot := range []float64{5, 10, 20, 30, 50} {
		vs = append(vs, stptVariant{x: tot, label: fmt.Sprintf("ε=%.0f", tot), key: fmt.Sprintf("fig8h/eps%g", tot),
			mut: func(c *core.Config) {
				c.EpsPattern = tot / 3
				c.EpsSanitize = 2 * tot / 3
			}})
	}
	return o.mrePanel(ctx, "fig8h", vs)
}

// RunFig8Models regenerates Figure 8(i): query MRE with the RNN, GRU,
// attentive-GRU and transformer predictors.
func RunFig8Models(ctx context.Context, o Options) ([]SweepPoint, error) {
	var vs []stptVariant
	for i, kind := range []core.ModelKind{core.ModelRNN, core.ModelGRU, core.ModelAttentiveGRU, core.ModelTransformer} {
		vs = append(vs, stptVariant{x: float64(i), label: kind.String(), key: "fig8i/" + kind.String(),
			mut: func(c *core.Config) { c.Model = kind }})
	}
	return o.mrePanel(ctx, "fig8i", vs)
}

// PrintSweepMRE renders MRE-valued sweep points (panels c, g, h, i).
func PrintSweepMRE(w io.Writer, title string, points []SweepPoint) {
	fmt.Fprintf(w, "=== %s ===\n", title)
	fmt.Fprintf(w, "  %-10s %12s %12s %12s\n", "x", "random MRE%", "small MRE%", "large MRE%")
	for _, p := range points {
		fmt.Fprintf(w, "  %-10s %12.2f %12.2f %12.2f\n",
			p.Label, p.MRE[query.Random], p.MRE[query.Small], p.MRE[query.Large])
	}
	fmt.Fprintln(w)
}

// PrintSweepPattern renders MAE/RMSE-valued sweep points (panels a/b, e/f).
func PrintSweepPattern(w io.Writer, title string, points []SweepPoint) {
	fmt.Fprintf(w, "=== %s ===\n", title)
	fmt.Fprintf(w, "  %-10s %12s %12s\n", "x", "MAE", "RMSE")
	for _, p := range points {
		fmt.Fprintf(w, "  %-10s %12.4f %12.4f\n", p.Label, p.MAE, p.RMSE)
	}
	fmt.Fprintln(w)
}

// PrintRuntimes renders Figure 8(d).
func PrintRuntimes(w io.Writer, rows []RuntimeResult) {
	fmt.Fprintln(w, "=== Figure 8(d): computational complexity ===")
	fmt.Fprintf(w, "  %-14s %12s\n", "algorithm", "seconds")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-14s %12.3f\n", r.Name, r.Seconds)
	}
	fmt.Fprintln(w)
}
