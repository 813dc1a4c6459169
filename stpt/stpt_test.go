package stpt_test

import (
	"bytes"
	"context"
	"testing"

	"repro/stpt"
)

// smallConfig keeps end-to-end public-API tests fast on CPU.
func smallConfig() stpt.Config {
	cfg := stpt.DefaultConfig()
	cfg.TTrain = 16
	cfg.Depth = 2
	cfg.WindowSize = 4
	cfg.QuantLevels = 6
	cfg.EmbedDim = 4
	cfg.Hidden = 4
	cfg.Train.Epochs = 3
	return cfg
}

func TestPublicAPIEndToEnd(t *testing.T) {
	data := stpt.GenerateDataset(stpt.SpecCA, stpt.LayoutUniform, 8, 8, 28, 1)
	cfg := smallConfig()
	cfg.ClipFactor = stpt.SpecCA.ClipFactor
	res, err := stpt.RunContext(context.Background(), data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sanitized.Ct != 12 {
		t.Fatalf("horizon %d", res.Sanitized.Ct)
	}
	mre := stpt.EvaluateMRE(res.Truth, res.Sanitized, stpt.QueryRandom, 100, 1)
	if mre < 0 {
		t.Fatalf("MRE %v", mre)
	}
}

func TestPublicBaselines(t *testing.T) {
	if len(stpt.Baselines()) != 7 {
		t.Fatalf("expected 7 registry baselines, got %d", len(stpt.Baselines()))
	}
	data := stpt.GenerateDataset(stpt.SpecTX, stpt.LayoutNormal, 4, 4, 20, 2)
	rel, err := stpt.RunBaselineContext(context.Background(), "identity", data, 8, stpt.SpecTX.ClipFactor, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	truth := stpt.TruthMatrix(data, 8)
	if rel.Ct != truth.Ct {
		t.Fatalf("dims %d vs %d", rel.Ct, truth.Ct)
	}
	if _, err := stpt.RunBaselineContext(context.Background(), "bogus", data, 8, 1, 10, 3); err == nil {
		t.Fatal("expected unknown-baseline error")
	}
	if _, err := stpt.RunBaselineContext(context.Background(), "identity", data, 20, 1, 10, 3); err == nil {
		t.Fatal("expected no-horizon error")
	}
}

func TestPublicCSVRoundTrip(t *testing.T) {
	data := stpt.GenerateDataset(stpt.SpecMI, stpt.LayoutLosAngeles, 8, 8, 6, 4)
	var buf bytes.Buffer
	if err := stpt.SaveCSV(data, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := stpt.LoadCSV(&buf, "MI", 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != data.N() {
		t.Fatalf("households %d vs %d", back.N(), data.N())
	}
}

func TestDatasetSpecs(t *testing.T) {
	specs := stpt.DatasetSpecs()
	if len(specs) != 4 || specs[0].Name != "CER" {
		t.Fatalf("specs = %+v", specs)
	}
}

func TestBaselineLookupAndExtensions(t *testing.T) {
	a, err := stpt.Baseline("wpo")
	if err != nil || a.Name() != "wpo" {
		t.Fatalf("Baseline(wpo) = %v, %v", a, err)
	}
	if len(stpt.LocalMechanisms()) != 2 {
		t.Fatal("expected two local mechanisms")
	}
	data := stpt.GenerateDataset(stpt.SpecCA, stpt.LayoutUniform, 4, 4, 12, 3)
	rel, err := stpt.RunLocal(stpt.LocalMechanisms()[0], data, 4, stpt.SpecCA.ClipFactor, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Ct != 8 {
		t.Fatalf("horizon %d", rel.Ct)
	}
	f, err := stpt.SuggestBudgetSplit(smallConfig(), 16, 16, 48)
	if err != nil || f <= 0 || f >= 1 {
		t.Fatalf("SuggestBudgetSplit = %v, %v", f, err)
	}
}
