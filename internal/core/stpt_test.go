package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/grid"
	"repro/internal/nn"
	"repro/internal/timeseries"
)

// testDataset builds a small dataset with a sinusoidal daily cycle and a
// spatial hotspot, enough signal for the pipeline to exercise every path.
func testDataset(cx, cy, n, T int, seed int64) *timeseries.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &timeseries.Dataset{Name: "synthetic", Cx: cx, Cy: cy}
	for i := 0; i < n; i++ {
		loc := timeseries.Location{X: rng.Intn(cx), Y: rng.Intn(cy)}
		base := 0.5 + rng.Float64()
		vals := make([]float64, T)
		for t := range vals {
			vals[t] = base * (1 + 0.5*math.Sin(2*math.Pi*float64(t)/12)) * (1 + 0.1*rng.NormFloat64())
			if vals[t] < 0 {
				vals[t] = 0
			}
		}
		d.Series = append(d.Series, &timeseries.Series{Location: loc, Values: vals})
	}
	return d
}

func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.TTrain = 12
	cfg.Depth = 2
	cfg.WindowSize = 3
	cfg.QuantLevels = 4
	cfg.EmbedDim = 4
	cfg.Hidden = 4
	cfg.Train = nn.TrainConfig{Epochs: 3, BatchSize: 8, ClipNorm: 5}
	cfg.ClipFactor = 3
	return cfg
}

func TestRunEndToEnd(t *testing.T) {
	d := testDataset(8, 8, 60, 24, 1)
	cfg := tinyConfig()
	res, err := RunContext(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sanitized.Cx != 8 || res.Sanitized.Cy != 8 || res.Sanitized.Ct != 12 {
		t.Fatalf("sanitized dims %dx%dx%d", res.Sanitized.Cx, res.Sanitized.Cy, res.Sanitized.Ct)
	}
	for _, v := range res.Sanitized.Data() {
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("released value invalid: %v", v)
		}
	}
	if res.Partitions <= 0 || res.Partitions > cfg.QuantLevels {
		t.Fatalf("partitions = %d", res.Partitions)
	}
	if res.PatternMAE <= 0 || res.PatternRMSE < res.PatternMAE {
		t.Fatalf("pattern errors MAE %v RMSE %v", res.PatternMAE, res.PatternRMSE)
	}
}

func TestRunBudgetAccounting(t *testing.T) {
	d := testDataset(8, 8, 40, 20, 2)
	// The accountant must spend exactly ε_tot = ε_p + ε_s: the whole
	// split, no more (a privacy violation) and no less (wasted budget).
	for _, eps := range [][2]float64{{4, 6}, {0.3, 0.7}, {1, 2}, {0.1, 0.2}} {
		cfg := tinyConfig()
		cfg.EpsPattern, cfg.EpsSanitize = eps[0], eps[1]
		res, err := RunContext(context.Background(), d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if total := res.Accountant.TotalEpsilon(); total != cfg.EpsTotal() {
			t.Errorf("(ε_p, ε_s) = %v: accountant total %v, want exactly ε_tot %v", eps, total, cfg.EpsTotal())
		}
	}
}

func TestRunDeterministicWithSeed(t *testing.T) {
	d := testDataset(4, 4, 30, 18, 3)
	cfg := tinyConfig()
	cfg.Depth = 1
	a, err := RunContext(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range a.Sanitized.Data() {
		if b.Sanitized.Data()[i] != v {
			t.Fatal("same seed produced different releases")
		}
	}
	cfg.Seed = 777
	c, err := RunContext(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i, v := range a.Sanitized.Data() {
		if c.Sanitized.Data()[i] != v {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical releases")
	}
}

func TestRunValidation(t *testing.T) {
	d := testDataset(4, 4, 10, 20, 4)
	bad := tinyConfig()
	bad.EpsPattern = 0
	if _, err := RunContext(context.Background(), d, bad); err == nil {
		t.Fatal("expected budget validation error")
	}
	short := testDataset(4, 4, 10, 12, 4)
	cfg := tinyConfig() // TTrain = 12 leaves no horizon
	if _, err := RunContext(context.Background(), short, cfg); err == nil {
		t.Fatal("expected no-horizon error")
	}
}

func TestRunAllModels(t *testing.T) {
	d := testDataset(4, 4, 30, 18, 5)
	for _, kind := range []ModelKind{ModelRNN, ModelGRU, ModelLSTM, ModelAttentiveGRU, ModelTransformer, ModelPersistence} {
		cfg := tinyConfig()
		cfg.Depth = 1
		cfg.Model = kind
		res, err := RunContext(context.Background(), d, cfg)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if res.Sanitized.Ct != 6 {
			t.Fatalf("%v: horizon %d", kind, res.Sanitized.Ct)
		}
	}
}

func TestRunAblations(t *testing.T) {
	d := testDataset(8, 8, 40, 20, 6)
	for name, mod := range map[string]func(*Config){
		"flat-training":  func(c *Config) { c.FlatTraining = true },
		"uniform-budget": func(c *Config) { c.UniformBudget = true },
		"no-partitions":  func(c *Config) { c.NoPartitions = true },
	} {
		cfg := tinyConfig()
		mod(&cfg)
		if _, err := RunContext(context.Background(), d, cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestQuantizeDefinition4(t *testing.T) {
	p := grid.NewMatrix(2, 2, 2)
	// Values 0..7 over 8 cells, k=4 → buckets of equal width.
	v := 0.0
	for t := 0; t < 2; t++ {
		for y := 0; y < 2; y++ {
			for x := 0; x < 2; x++ {
				p.Set(x, y, t, v)
				v++
			}
		}
	}
	parts := QuantizeModeWorkers(p, 4, QuantLinear, 1)
	if len(parts) != 4 {
		t.Fatalf("partitions = %d", len(parts))
	}
	total := 0
	for _, pt := range parts {
		total += len(pt.Cells)
		if len(pt.Cells) != 2 {
			t.Fatalf("bucket %d has %d cells", pt.Level, len(pt.Cells))
		}
	}
	if total != 8 {
		t.Fatalf("cells covered %d", total)
	}
}

func TestQuantizeLogSeparatesSkewedValues(t *testing.T) {
	// Values 0,0,0,0,1,1,10,1000: linear k=4 lumps everything except the
	// outlier into bucket 0; log buckets separate the magnitudes.
	p := grid.NewMatrix(2, 2, 2)
	copy(p.Data(), []float64{0, 0, 0, 0, 1, 1, 10, 1000})
	linear := QuantizeModeWorkers(p, 4, QuantLinear, 1)
	if len(linear) != 2 { // bucket 0 (7 cells) + top bucket (1 cell)
		t.Fatalf("linear partitions = %d", len(linear))
	}
	logParts := QuantizeModeWorkers(p, 4, QuantLog, 1)
	if len(logParts) < 3 {
		t.Fatalf("log partitions = %d, want >= 3", len(logParts))
	}
	// Zeros must not share a bucket with the 10s under log quantization.
	for _, pt := range logParts {
		hasZero, hasTen := false, false
		for _, c := range pt.Cells {
			switch p.At(c.x, c.y, c.t) {
			case 0:
				hasZero = true
			case 10:
				hasTen = true
			}
		}
		if hasZero && hasTen {
			t.Fatal("log quantization mixed 0 and 10 in one bucket")
		}
	}
}

func TestQuantizeConstantMatrix(t *testing.T) {
	p := grid.NewMatrix(2, 2, 3)
	for i := range p.Data() {
		p.Data()[i] = 0.5
	}
	parts := QuantizeModeWorkers(p, 5, QuantLog, 1)
	if len(parts) != 1 {
		t.Fatalf("constant matrix should form one partition, got %d", len(parts))
	}
	if len(parts[0].Cells) != 12 {
		t.Fatalf("cells %d", len(parts[0].Cells))
	}
	// All 3 time steps of each pillar share the bucket → PillarMax = 3.
	if parts[0].PillarMax != 3 {
		t.Fatalf("PillarMax = %d", parts[0].PillarMax)
	}
}

// Property: quantization always covers every cell exactly once, and each
// partition's PillarMax is at most Ct and at least 1.
func TestQuantizeCoverageProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cx, cy, ct := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(6)
		k := 1 + rng.Intn(10)
		p := grid.NewMatrix(cx, cy, ct)
		for i := range p.Data() {
			p.Data()[i] = rng.Float64()
		}
		parts := QuantizeModeWorkers(p, k, QuantLog, 1)
		total := 0
		for _, pt := range parts {
			total += len(pt.Cells)
			if pt.PillarMax < 1 || pt.PillarMax > ct {
				return false
			}
		}
		return total == cx*cy*ct
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property (Theorem 7): summing the per-pillar counts of a partition never
// exceeds PillarMax * number of pillars, and a partition built from a
// single pillar has PillarMax equal to its size.
func TestPillarMaxSinglePillar(t *testing.T) {
	p := grid.NewMatrix(1, 1, 6)
	for i := range p.Data() {
		p.Data()[i] = 0.3
	}
	parts := QuantizeModeWorkers(p, 3, QuantLog, 1)
	if len(parts) != 1 || parts[0].PillarMax != 6 {
		t.Fatalf("parts %d PillarMax %d", len(parts), parts[0].PillarMax)
	}
}

func TestModelKindString(t *testing.T) {
	names := map[ModelKind]string{
		ModelRNN: "rnn", ModelGRU: "gru", ModelLSTM: "lstm",
		ModelAttentiveGRU: "attentive-gru", ModelTransformer: "transformer",
		ModelPersistence: "persistence",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

// The released matrix should track total mass roughly: with a generous
// budget, total released consumption is within a factor of 2 of truth.
func TestReleasePreservesMass(t *testing.T) {
	d := testDataset(8, 8, 80, 24, 7)
	cfg := tinyConfig()
	cfg.EpsPattern = 20
	cfg.EpsSanitize = 100
	res, err := RunContext(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	truth := res.Truth.Total()
	got := res.Sanitized.Total()
	if got < truth/2 || got > truth*2 {
		t.Fatalf("mass distortion: truth %v released %v", truth, got)
	}
}
