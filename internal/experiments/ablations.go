package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
)

// AblationResult compares full STPT against one disabled design choice.
type AblationResult struct {
	Name    string
	Full    AlgResult
	Ablated AlgResult
}

// RunAblations measures the contribution of each STPT design choice
// called out in DESIGN.md: hierarchical training sanitisation, Theorem-8
// budget allocation, k-quantization partitioning and the learned
// predictor. The full configuration and every ablation run their
// (variant, rep) cells on one worker pool.
func RunAblations(ctx context.Context, o Options) ([]AblationResult, error) {
	vs := []stptVariant{
		{label: "stpt"},
		{label: "flat-training", mut: func(c *core.Config) { c.FlatTraining = true }},
		{label: "uniform-budget", mut: func(c *core.Config) { c.UniformBudget = true }},
		{label: "no-partitions", mut: func(c *core.Config) { c.NoPartitions = true }},
		{label: "persistence", mut: func(c *core.Config) { c.Model = core.ModelPersistence }},
	}
	for i := range vs {
		vs[i].key = "ablations/" + vs[i].label
	}
	results, err := o.scoreVariants(ctx, "ablations", vs)
	if err != nil {
		return nil, err
	}
	out := make([]AblationResult, len(results)-1)
	for i, ablated := range results[1:] {
		out[i] = AblationResult{Name: ablated.Name, Full: results[0], Ablated: ablated}
	}
	return out, nil
}

// PrintAblations renders the design-choice comparison.
func PrintAblations(w io.Writer, rows []AblationResult) {
	fmt.Fprintln(w, "=== Ablations: full STPT vs each design choice disabled (random-query MRE %) ===")
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "  %-16s %12s %12s %10s\n", "ablation", "full", "ablated", "ratio")
	for _, r := range rows {
		full := r.Full.MRE[0]
		ab := r.Ablated.MRE[0]
		ratio := 0.0
		if full > 0 {
			ratio = ab / full
		}
		fmt.Fprintf(w, "  %-16s %12.2f %12.2f %9.2fx\n", r.Name, full, ab, ratio)
	}
	fmt.Fprintln(w)
}
