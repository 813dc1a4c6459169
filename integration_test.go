package repro

import (
	"bytes"
	"context"
	"math"
	"testing"

	"repro/internal/powergrid"
	"repro/stpt"
)

// TestPipelineEndToEnd drives the whole stack through the public API: data
// generation → CSV round trip → STPT release → utility evaluation →
// baseline comparison → downstream planning on the released matrix.
func TestPipelineEndToEnd(t *testing.T) {
	data := stpt.GenerateDataset(stpt.SpecCA, stpt.LayoutNormal, 16, 16, 60, 42)

	// CSV round trip preserves the dataset exactly.
	var buf bytes.Buffer
	if err := stpt.SaveCSV(data, &buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := stpt.LoadCSV(&buf, data.Name, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.N() != data.N() || loaded.T() != data.T() {
		t.Fatalf("round trip lost data: %d/%d vs %d/%d", loaded.N(), loaded.T(), data.N(), data.T())
	}

	cfg := stpt.DefaultConfig()
	cfg.TTrain = 24
	cfg.Depth = 3
	cfg.WindowSize = 4
	cfg.EmbedDim = 6
	cfg.Hidden = 6
	cfg.Train.Epochs = 4
	cfg.ClipFactor = stpt.SpecCA.ClipFactor
	res, err := stpt.RunContext(context.Background(), loaded, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Privacy accounting is exactly ε_tot.
	if got := res.Accountant.TotalEpsilon(); math.Abs(got-cfg.EpsTotal()) > 1e-6 {
		t.Fatalf("accountant ε = %v, want %v", got, cfg.EpsTotal())
	}

	// Utility beats the Identity baseline at equal budget on random queries.
	stptMRE := stpt.EvaluateMRE(res.Truth, res.Sanitized, stpt.QueryRandom, 200, 7)
	idRelease, err := stpt.RunBaselineContext(context.Background(), "identity", loaded, cfg.TTrain, cfg.ClipFactor, cfg.EpsTotal(), 1)
	if err != nil {
		t.Fatal(err)
	}
	idMRE := stpt.EvaluateMRE(res.Truth, idRelease, stpt.QueryRandom, 200, 7)
	if stptMRE >= idMRE {
		t.Fatalf("STPT (%v%%) should beat Identity (%v%%)", stptMRE, idMRE)
	}

	// The released matrix drives downstream planning without errors.
	net := powergrid.NewNetwork()
	net.AddBattery("B1", 4, 4)
	net.AddConsumer("C1", 3, 3, true)
	net.AddConsumer("C2", 5, 5, true)
	net.AddConsumer("C3", 12, 12, true)
	net.AddConsumer("C4", 13, 13, true)
	net.AssignNearest()
	net.Rebalance(res.Sanitized, 0, res.Sanitized.Ct-1, 1)
	if len(net.Assignment) != 4 {
		t.Fatalf("assignment incomplete: %v", net.Assignment)
	}
}

// TestLocalVsCentralIntegration verifies the LDP extension's headline
// trade-off end to end through the public API.
func TestLocalVsCentralIntegration(t *testing.T) {
	data := stpt.GenerateDataset(stpt.SpecTX, stpt.LayoutUniform, 8, 8, 36, 9)
	truth := stpt.TruthMatrix(data, 12)
	for _, m := range stpt.LocalMechanisms() {
		rel, err := stpt.RunLocal(m, data, 12, stpt.SpecTX.ClipFactor, 30, 4)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if rel.Ct != truth.Ct {
			t.Fatalf("%s: horizon mismatch", m.Name())
		}
	}
}

// TestBudgetSplitIntegration checks the analytical split model against an
// actual pair of STPT runs: the recommended split must not be worse than
// both extreme splits.
func TestBudgetSplitIntegration(t *testing.T) {
	data := stpt.GenerateDataset(stpt.SpecCER, stpt.LayoutUniform, 8, 8, 36, 11)
	base := stpt.DefaultConfig()
	base.TTrain = 16
	base.Depth = 2
	base.WindowSize = 3
	base.EmbedDim = 4
	base.Hidden = 4
	base.Train.Epochs = 3
	base.ClipFactor = stpt.SpecCER.ClipFactor
	truth := stpt.TruthMatrix(data, base.TTrain)

	run := func(f float64) float64 {
		cfg := base
		cfg.EpsPattern = 30 * f
		cfg.EpsSanitize = 30 * (1 - f)
		var total float64
		for rep := int64(0); rep < 3; rep++ {
			cfg.Seed = rep + 1
			res, err := stpt.RunContext(context.Background(), data, cfg)
			if err != nil {
				t.Fatal(err)
			}
			total += stpt.EvaluateMRE(truth, res.Sanitized, stpt.QueryRandom, 150, 3)
		}
		return total / 3
	}
	rec, err := stpt.SuggestBudgetSplit(base, 8, 8, truth.Ct)
	if err != nil {
		t.Fatal(err)
	}
	mid := run(rec)
	lo := run(0.05)
	hi := run(0.95)
	if mid > lo && mid > hi {
		t.Fatalf("recommended split %v (MRE %v) worse than both extremes (%v, %v)", rec, mid, lo, hi)
	}
}
