package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/nn"
	"repro/internal/timeseries"
)

// QuantizeModeWorkers must reproduce the serial partitioning exactly —
// levels, cell order within each partition, and pillar sensitivities —
// for every worker count.
func TestQuantizeWorkersBitIdentical(t *testing.T) {
	d := testDataset(8, 8, 60, 24, 9)
	pattern := grid.FromDataset(d, 12, d.T())
	for _, mode := range []QuantMode{QuantLog, QuantLinear} {
		serial := QuantizeModeWorkers(pattern, 6, mode, 1)
		for _, workers := range []int{2, 3, 8, 100} {
			got := QuantizeModeWorkers(pattern, 6, mode, workers)
			if len(got) != len(serial) {
				t.Fatalf("mode=%d workers=%d: %d partitions, want %d", mode, workers, len(got), len(serial))
			}
			for i, p := range got {
				s := serial[i]
				if p.Level != s.Level || p.PillarMax != s.PillarMax || len(p.Cells) != len(s.Cells) {
					t.Fatalf("mode=%d workers=%d: partition %d header differs", mode, workers, i)
				}
				for j, c := range p.Cells {
					if c != s.Cells[j] {
						t.Fatalf("mode=%d workers=%d: partition %d cell %d = %v, want %v", mode, workers, i, j, c, s.Cells[j])
					}
				}
			}
		}
	}
}

// A full run at Workers=0 and Workers=1 must be bit-identical (both take
// the serial code paths), and a run at Workers=N must be self-consistent
// across repetitions.
func TestRunWorkersDeterminism(t *testing.T) {
	d := testDataset(8, 8, 60, 24, 4)
	run := func(workers int) *Result {
		cfg := tinyConfig()
		cfg.Workers = workers
		res, err := RunContext(context.Background(), d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(0)
	serial := run(1)
	for i, v := range base.Sanitized.Data() {
		if serial.Sanitized.Data()[i] != v {
			t.Fatal("Workers=0 and Workers=1 releases differ")
		}
	}
	p4a := run(4)
	p4b := run(4)
	for i, v := range p4a.Sanitized.Data() {
		if p4b.Sanitized.Data()[i] != v {
			t.Fatal("Workers=4 is not deterministic across runs")
		}
	}
	// Sanity: the parallel release stays a valid DP release of the same
	// shape (training regroups float sums, so exact equality with serial
	// is not required).
	if p4a.Sanitized.Len() != base.Sanitized.Len() || p4a.Partitions <= 0 {
		t.Fatalf("parallel run shape: len %d partitions %d", p4a.Sanitized.Len(), p4a.Partitions)
	}
}

// The persistence model skips training and rollout randomness entirely, so
// its release must be bit-identical across ALL worker counts.
func TestRunWorkersPersistenceBitIdentical(t *testing.T) {
	d := testDataset(8, 8, 60, 24, 5)
	run := func(workers int) *Result {
		cfg := tinyConfig()
		cfg.Model = ModelPersistence
		cfg.Workers = workers
		res, err := RunContext(context.Background(), d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(1)
	for _, workers := range []int{2, 4, 7} {
		got := run(workers)
		for i, v := range base.Sanitized.Data() {
			if got.Sanitized.Data()[i] != v {
				t.Fatalf("persistence release differs at workers=%d", workers)
			}
		}
	}
}

// The rollout draws no randomness, so one trained model must roll out to
// the same pattern bit for bit on any number of shards: the model itself
// at one worker, a shadow clone per shard at several, and more workers
// than rows.
func TestRolloutWorkersBitIdentical(t *testing.T) {
	const cx, cy, tTrain, horizon = 4, 5, 12, 9
	cfg := tinyConfig()
	cfg.Model = ModelAttentiveGRU
	rng := rand.New(rand.NewSource(21))
	model, err := buildModel(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	trainEst := grid.NewMatrix(cx, cy, tTrain)
	for i := range trainEst.Data() {
		trainEst.Data()[i] = rng.Float64()
	}
	var samples []timeseries.Window
	for y := 0; y < cy; y++ {
		for x := 0; x < cx; x++ {
			samples = append(samples, timeseries.SlidingWindows(trainEst.Pillar(x, y), cfg.WindowSize)...)
		}
	}
	trainer := &nn.Trainer{Model: model, Opt: nn.NewRMSProp(cfg.LR), Cfg: cfg.Train, Rng: rng}
	if _, err := trainer.FitContext(context.Background(), samples); err != nil {
		t.Fatal(err)
	}
	cellCtx := func(x, y int, frac float64) []float64 {
		return []float64{(float64(x) + 0.5) / cx, (float64(y) + 0.5) / cy, frac}
	}
	roll := func(workers int) *grid.Matrix {
		c := cfg
		c.Workers = workers
		p := grid.NewMatrix(cx, cy, horizon)
		if err := rolloutPattern(context.Background(), model, trainEst, p, c, cellCtx, 0.25, horizon); err != nil {
			t.Fatal(err)
		}
		return p
	}
	want := roll(1)
	if want.Total() == 0 {
		t.Fatal("rollout produced an all-zero pattern")
	}
	for _, workers := range []int{2, 3, cy + 3} {
		got := roll(workers)
		for i, v := range want.Data() {
			if math.Float64bits(got.Data()[i]) != math.Float64bits(v) {
				t.Fatalf("workers=%d: cell %d = %v, want %v (workers=1)", workers, i, got.Data()[i], v)
			}
		}
	}
}

// TestRolloutRowsMatchPerCell pins rolloutPattern, which rolls each grid
// row's cells in lockstep, to the per-cell loop it replaced (each cell's
// shape rolled alone by nn.Rollout, then re-leveled) bit for bit: every
// model kind, on 1, 2 and 3 shards. Row 0 holds a cell whose seed is all
// zeros, and the clamp bites in it.
func TestRolloutRowsMatchPerCell(t *testing.T) {
	const cx, cy, tTrain, horizon = 5, 3, 12, 7
	for _, kind := range []ModelKind{ModelRNN, ModelGRU, ModelLSTM, ModelAttentiveGRU, ModelTransformer} {
		cfg := tinyConfig()
		cfg.Model = kind
		rng := rand.New(rand.NewSource(23))
		model, err := buildModel(cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		trainEst := grid.NewMatrix(cx, cy, tTrain)
		for i := range trainEst.Data() {
			trainEst.Data()[i] = rng.Float64()
		}
		for tt := 0; tt < tTrain; tt++ {
			trainEst.Set(2, 0, tt, 0)
		}
		cellCtx := func(x, y int, frac float64) []float64 {
			return []float64{(float64(x) + 0.5) / cx, (float64(y) + 0.5) / cy, frac}
		}
		want := grid.NewMatrix(cx, cy, horizon)
		bit := false
		for y := 0; y < cy; y++ {
			for x := 0; x < cx; x++ {
				seed := trainEst.Pillar(x, y)
				ws := cfg.WindowSize
				level := windowLevel(seed[len(seed)-ws:])
				shape := make([]float64, ws)
				for j, v := range seed[len(seed)-ws:] {
					shape[j] = v / level
				}
				feed := func(p float64) float64 {
					c := clampShape(p)
					bit = bit || (y == 0 && c != p)
					return c
				}
				for tt, v := range nn.Rollout(model, shape, cellCtx(x, y, 0.25), horizon, feed) {
					want.Set(x, y, tt, v*level)
				}
			}
		}
		if !bit {
			t.Fatalf("%v: the clamp never bit in row 0", kind)
		}
		for _, workers := range []int{1, 2, 3} {
			c := cfg
			c.Workers = workers
			got := grid.NewMatrix(cx, cy, horizon)
			if err := rolloutPattern(context.Background(), model, trainEst, got, c, cellCtx, 0.25, horizon); err != nil {
				t.Fatal(err)
			}
			for i, v := range want.Data() {
				if math.Float64bits(got.Data()[i]) != math.Float64bits(v) {
					t.Fatalf("%v workers=%d: cell %d = %v, per cell %v", kind, workers, i, got.Data()[i], v)
				}
			}
		}
	}
}
