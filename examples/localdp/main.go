// Localdp demonstrates the paper's future-work decentralised setting: the
// households do not trust the aggregator, so each perturbs its own
// readings before reporting (local differential privacy). The example
// quantifies what that stronger threat model costs by comparing, at the
// same total ε, the central STPT release against the two local protocols.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/stpt"
)

func main() {
	data := stpt.GenerateDataset(stpt.SpecCER, stpt.LayoutUniform, 16, 16, 88, 21)
	const tTrain = 40
	clip := stpt.SpecCER.ClipFactor

	cfg := stpt.DefaultConfig()
	cfg.TTrain = tTrain
	cfg.Depth = 3
	cfg.WindowSize = 4
	cfg.EmbedDim = 8
	cfg.Hidden = 8
	cfg.Train.Epochs = 5
	cfg.ClipFactor = clip
	res, err := stpt.RunContext(context.Background(), data, cfg)
	if err != nil {
		log.Fatal(err)
	}
	truth := res.Truth
	eps := cfg.EpsTotal()

	fmt.Printf("%-14s %12s %12s   threat model\n", "mechanism", "random MRE%", "large MRE%")
	fmt.Printf("%-14s %12.2f %12.2f   trusted aggregator (central DP)\n", "stpt",
		stpt.EvaluateMRE(truth, res.Sanitized, stpt.QueryRandom, 300, 5),
		stpt.EvaluateMRE(truth, res.Sanitized, stpt.QueryLarge, 300, 5))

	for _, m := range stpt.LocalMechanisms() {
		rel, err := stpt.RunLocal(m, data, tTrain, clip, eps, 3)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %12.2f %12.2f   untrusted aggregator (local DP)\n", m.Name(),
			stpt.EvaluateMRE(truth, rel, stpt.QueryRandom, 300, 5),
			stpt.EvaluateMRE(truth, rel, stpt.QueryLarge, 300, 5))
	}
	fmt.Println()
	fmt.Println("per-reading local perturbation (ldp-laplace) pays one noise draw per household")
	fmt.Println("per timestamp, so at equal ε it is far noisier than the central release; sampled")
	fmt.Println("reporting narrows the gap on aggregate queries by spending ε on fewer, better")
	fmt.Println("reports, at the cost of per-timestamp detail.")

	// The analytical budget-split recommendation (future-work item 3).
	f, err := stpt.SuggestBudgetSplit(cfg, 16, 16, truth.Ct)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nanalytical model recommends ε_pattern = %.0f%% of ε_tot for this geometry\n", 100*f)
}
