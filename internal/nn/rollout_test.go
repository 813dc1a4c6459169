package nn

import (
	"math"
	"math/rand"
	"testing"
)

// rollModels builds one model of every kind at window size ws with ctxDim
// context features.
func rollModels(ws, ctxDim int, rng *rand.Rand) []Model {
	return []Model{
		NewRecurrentModel("rnn", ws, ctxDim, 5, NewRNNCell("rnn.cell", 5, 7, rng), rng),
		NewRecurrentModel("gru", ws, ctxDim, 5, NewGRUCell("gru.cell", 5, 7, rng), rng),
		NewRecurrentModel("lstm", ws, ctxDim, 5, NewLSTMCell("lstm.cell", 5, 7, rng), rng),
		NewAttentiveGRUModel("attn", ws, ctxDim, 6, 7, rng),
		NewTransformerModel("tf", ws, ctxDim, 6, 10, rng),
	}
}

func randSlice(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64() * 2
	}
	return v
}

func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// refRollout is the per-step loop Rollout replaced: Predict on a copy of
// the window, shifted by hand after every step.
func refRollout(m Model, seed, ctx []float64, horizon int, feed func(float64) float64) []float64 {
	ws := m.WindowSize()
	window := append([]float64(nil), seed[len(seed)-ws:]...)
	out := make([]float64, horizon)
	for i := range out {
		p := Predict(m, window, ctx)
		if feed != nil {
			p = feed(p)
		}
		out[i] = p
		copy(window, window[1:])
		window[ws-1] = p
	}
	return out
}

// TestPredictMatchesForward pins the attentive GRU's inference-only
// forward pass to its training Forward bit for bit: they share every
// layer's arithmetic and differ only in what Forward records for Backward.
// (Every other model's Predict is its Forward.)
func TestPredictMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for ws := 1; ws <= 8; ws++ {
		for _, ctxDim := range []int{0, 3} {
			m := NewAttentiveGRUModel("attn", ws, ctxDim, 6, 7, rng)
			for _, ctx := range [][]float64{nil, randSlice(rng, ctxDim)} {
				window := randSlice(rng, ws)
				want, _ := m.Forward(window, ctx)
				if got := Predict(m, window, ctx); !bitsEqual(got, want) {
					t.Fatalf("ws=%d ctx=%v: Predict %v, Forward %v", ws, ctx, got, want)
				}
			}
		}
	}
}

// TestRolloutMatchesPredictLoop pins Rollout, including the attentive
// GRU's incremental roll, to a per-step Predict loop bit for bit, for every
// model kind, window sizes 1..8, with and without context, under a raw and
// a clamping feed, on the model and on a shadow clone.
func TestRolloutMatchesPredictLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	clamp := func(p float64) float64 { return math.Max(0, math.Min(p, 0.3)) }
	feeds := map[string]func(float64) float64{"raw": nil, "clamp": clamp}
	const horizon = 17
	for ws := 1; ws <= 8; ws++ {
		for _, ctxDim := range []int{0, 3} {
			for _, m := range rollModels(ws, ctxDim, rng) {
				clone := m.(ShadowCloner).ShadowClone()
				for _, ctx := range [][]float64{nil, randSlice(rng, ctxDim)} {
					for name, feed := range feeds {
						seed := randSlice(rng, ws+2)
						want := refRollout(m, seed, ctx, horizon, feed)
						for who, mm := range map[string]Model{"model": m, "clone": clone} {
							got := Rollout(mm, seed, ctx, horizon, feed)
							for i := range want {
								if !bitsEqual(got[i], want[i]) {
									t.Fatalf("%s (%s) ws=%d ctx=%v feed=%s: step %d = %v, want %v",
										m.Name(), who, ws, ctx, name, i, got[i], want[i])
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestRollStepAllocs pins Predict on every model kind and a lockstep roll
// step of the attentive GRU, on blocks of one and five sequences, at zero
// steady-state allocations: the block's storage is laid out once per
// rollout in the model's arena, not once per step.
func TestRollStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates inside instrumented code")
	}
	rng := rand.New(rand.NewSource(33))
	const ws, ctxDim = 6, 3
	window, ctx := randSlice(rng, ws), randSlice(rng, ctxDim)
	for _, m := range rollModels(ws, ctxDim, rng) {
		t.Run(m.Name(), func(t *testing.T) {
			Predict(m, window, ctx) // warm the arena and the scratch
			if n := testing.AllocsPerRun(200, func() { Predict(m, window, ctx) }); n != 0 {
				t.Errorf("Predict allocates %v per call, want 0", n)
			}
		})
	}
	for _, b := range []int{1, 5} {
		m := NewAttentiveGRUModel("attn", ws, ctxDim, 6, 7, rng)
		seeds, ctxs := make([][]float64, b), make([][]float64, b)
		for i := range seeds {
			seeds[i], ctxs[i] = randSlice(rng, ws), randSlice(rng, ctxDim)
		}
		Rollouts(m, seeds, ctxs, 3, nil) // lays out the block, kept until the next pass
		if n := testing.AllocsPerRun(200, func() { m.rollNext(&m.blk) }); n != 0 {
			t.Errorf("block of %d: roll step allocates %v per step, want 0", b, n)
		}
	}
}
