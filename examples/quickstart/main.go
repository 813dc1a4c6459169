// Quickstart: generate a synthetic smart-meter dataset, publish it with
// STPT under ε-differential privacy, and measure the utility of the
// release with range queries — the library's minimal end-to-end flow.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/stpt"
)

func main() {
	// 1. A CA-like dataset: 250 households on a 16x16 grid, 40 hours of
	//    training history plus 48 hours to be released.
	data := stpt.GenerateDataset(stpt.SpecCA, stpt.LayoutUniform, 16, 16, 88, 1)

	// 2. Configure STPT: ε_tot = 30 split 10 (pattern) / 20 (sanitize),
	//    as in the paper's testbed, with a small network for CPU speed.
	cfg := stpt.DefaultConfig()
	cfg.TTrain = 40
	cfg.Depth = 3
	cfg.WindowSize = 4
	cfg.EmbedDim = 8
	cfg.Hidden = 8
	cfg.Train.Epochs = 5
	cfg.ClipFactor = stpt.SpecCA.ClipFactor

	// 3. Run: the result's Sanitized matrix is safe to share.
	res, err := stpt.RunContext(context.Background(), data, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("released %dx%dx%d consumption matrix at ε=%.0f (%d partitions)\n",
		res.Sanitized.Cx, res.Sanitized.Cy, res.Sanitized.Ct, cfg.EpsTotal(), res.Partitions)
	fmt.Print(res.Accountant.Report())

	// 4. Utility: mean relative error of 300 range queries per class.
	fmt.Printf("random-query MRE: %6.2f%%\n", stpt.EvaluateMRE(res.Truth, res.Sanitized, stpt.QueryRandom, 300, 7))
	fmt.Printf("small-query  MRE: %6.2f%%\n", stpt.EvaluateMRE(res.Truth, res.Sanitized, stpt.QuerySmall, 300, 7))
	fmt.Printf("large-query  MRE: %6.2f%%\n", stpt.EvaluateMRE(res.Truth, res.Sanitized, stpt.QueryLarge, 300, 7))

	// 5. Compare with the Identity baseline at the same total budget.
	idRelease, err := stpt.RunBaselineContext(context.Background(), "identity", data, cfg.TTrain, stpt.SpecCA.ClipFactor, cfg.EpsTotal(), 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("identity baseline random-query MRE: %6.2f%%\n",
		stpt.EvaluateMRE(res.Truth, idRelease, stpt.QueryRandom, 300, 7))
}
