package stpt_test

import (
	"context"
	"fmt"

	"repro/stpt"
)

// ExampleRunContext publishes a small synthetic dataset under ε-DP and
// prints the audited privacy spend.
func ExampleRunContext() {
	data := stpt.GenerateDataset(stpt.SpecCA, stpt.LayoutUniform, 8, 8, 28, 1)
	cfg := stpt.DefaultConfig()
	cfg.TTrain = 16
	cfg.Depth = 2
	cfg.WindowSize = 4
	cfg.EmbedDim = 4
	cfg.Hidden = 4
	cfg.Train.Epochs = 2
	cfg.ClipFactor = stpt.SpecCA.ClipFactor

	res, err := stpt.RunContext(context.Background(), data, cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("released %dx%dx%d matrix\n", res.Sanitized.Cx, res.Sanitized.Cy, res.Sanitized.Ct)
	fmt.Printf("privacy spend: ε=%.0f\n", res.Accountant.TotalEpsilon())
	// Output:
	// released 8x8x12 matrix
	// privacy spend: ε=30
}

// ExampleRunBaselineContext releases the same horizon with the Identity
// baseline.
func ExampleRunBaselineContext() {
	data := stpt.GenerateDataset(stpt.SpecTX, stpt.LayoutUniform, 4, 4, 20, 2)
	rel, err := stpt.RunBaselineContext(context.Background(), "identity", data, 8, stpt.SpecTX.ClipFactor, 30, 1)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("identity released %d cells\n", rel.Len())
	// Output:
	// identity released 192 cells
}

// ExampleSuggestBudgetSplit asks the analytical model how to divide ε_tot.
func ExampleSuggestBudgetSplit() {
	cfg := stpt.DefaultConfig()
	cfg.TTrain = 100
	f, err := stpt.SuggestBudgetSplit(cfg, 32, 32, 120)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("pattern share in (0,1): %v\n", f > 0 && f < 1)
	// Output:
	// pattern share in (0,1): true
}
