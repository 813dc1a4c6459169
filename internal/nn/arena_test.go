package nn

import (
	"math/rand"
	"testing"
)

// trainStep is the inner loop of Trainer.FitContext for one sample: zero the
// gradients, forward the window, backprop the loss derivative.
func trainStep(m Model, window, ctx []float64, ps []*Param) {
	ZeroGrads(ps)
	pred, cache := m.Forward(window, ctx)
	m.Backward(cache, 2*(pred-1.0))
}

// TestTrainingStepAllocs pins the steady-state allocation count of a full
// training step (ZeroGrads + Forward + Backward) for every model family.
// The arena pass makes the recurrent stack allocation-free after warm-up;
// the attention models are pinned at their achieved budgets so regressions
// in any layer's scratch handling fail loudly.
func TestTrainingStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates inside instrumented code")
	}
	rng := rand.New(rand.NewSource(7))
	const ws, ctxDim = 24, 3
	models := []struct {
		name   string
		m      Model
		budget float64
	}{
		{"rnn", NewRecurrentModel("rnn", ws, ctxDim, 8, NewRNNCell("rnn.cell", 8, 16, rng), rng), 0},
		{"gru", NewRecurrentModel("gru", ws, ctxDim, 8, NewGRUCell("gru.cell", 8, 16, rng), rng), 0},
		{"lstm", NewRecurrentModel("lstm", ws, ctxDim, 8, NewLSTMCell("lstm.cell", 8, 16, rng), rng), 0},
		{"attentive", NewAttentiveGRUModel("attn", ws, ctxDim, 8, 16, rng), 0},
		{"transformer", NewTransformerModel("tf", ws, ctxDim, 8, 16, rng), 0},
	}
	window := make([]float64, ws)
	ctx := make([]float64, ctxDim)
	for i := range window {
		window[i] = rng.Float64()
	}
	for _, tc := range models {
		ps := tc.m.Params()
		// Warm the arena slabs and cache pools.
		for i := 0; i < 3; i++ {
			trainStep(tc.m, window, ctx, ps)
		}
		n := testing.AllocsPerRun(200, func() { trainStep(tc.m, window, ctx, ps) })
		if n > tc.budget {
			t.Errorf("%s: full training step allocates %v per run, want <= %v", tc.name, n, tc.budget)
		}
	}
}

// TestShadowCloneOwnsScratch verifies that shadow clones do not share
// arenas with their base model: concurrent passes on base and clone must
// not corrupt each other's scratch.
func TestShadowCloneOwnsScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	base := NewAttentiveGRUModel("m", 12, 2, 6, 10, rng)
	clone := base.ShadowClone()
	if clone == nil {
		t.Fatal("ShadowClone returned nil")
	}
	window := make([]float64, 12)
	ctx := make([]float64, 2)
	for i := range window {
		window[i] = rng.NormFloat64()
	}
	want, _ := base.Forward(window, ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			p, c := clone.Forward(window, ctx)
			clone.Backward(c, p)
		}
	}()
	for i := 0; i < 50; i++ {
		got, c := base.Forward(window, ctx)
		if got != want {
			t.Errorf("base Forward drifted under concurrent clone use: %v != %v", got, want)
			break
		}
		base.Backward(c, got)
	}
	<-done
}
