// Budgetsweep shows how a data custodian tunes STPT's two privacy knobs
// before a real release, mirroring Figures 8(g) and 8(h): how should
// ε_tot split between pattern recognition and sanitisation, and how does
// utility scale with the total budget?
package main

import (
	"context"
	"fmt"
	"log"

	"repro/stpt"
)

func main() {
	data := stpt.GenerateDataset(stpt.SpecCER, stpt.LayoutNormal, 16, 16, 72, 5)

	base := stpt.DefaultConfig()
	base.TTrain = 36
	base.Depth = 3
	base.WindowSize = 4
	base.EmbedDim = 8
	base.Hidden = 8
	base.Train.Epochs = 4
	base.ClipFactor = stpt.SpecCER.ClipFactor

	run := func(cfg stpt.Config) float64 {
		// Average 3 noise draws per setting.
		var total float64
		for rep := int64(0); rep < 3; rep++ {
			cfg.Seed = 1 + rep
			res, err := stpt.RunContext(context.Background(), data, cfg)
			if err != nil {
				log.Fatal(err)
			}
			total += stpt.EvaluateMRE(res.Truth, res.Sanitized, stpt.QueryRandom, 200, 9)
		}
		return total / 3
	}

	fmt.Println("--- sweep 1: share of ε_tot=30 given to pattern recognition (Figure 8(g)) ---")
	fmt.Printf("%-10s %14s\n", "pattern%", "random MRE%")
	for _, frac := range []float64{0.1, 0.25, 0.33, 0.5, 0.75, 0.9} {
		cfg := base
		cfg.EpsPattern = 30 * frac
		cfg.EpsSanitize = 30 * (1 - frac)
		fmt.Printf("%-10.0f %14.2f\n", frac*100, run(cfg))
	}

	fmt.Println()
	fmt.Println("--- sweep 2: total budget at the paper's 1:2 split (Figure 8(h)) ---")
	fmt.Printf("%-10s %14s\n", "ε_tot", "random MRE%")
	for _, tot := range []float64{5, 10, 20, 30, 50} {
		cfg := base
		cfg.EpsPattern = tot / 3
		cfg.EpsSanitize = 2 * tot / 3
		fmt.Printf("%-10.0f %14.2f\n", tot, run(cfg))
	}
	fmt.Println()
	fmt.Println("expect: a U-shape over the split (too little pattern budget → bad partitions;")
	fmt.Println("too little sanitisation budget → noisy aggregates) and MRE falling as ε_tot grows.")
}
