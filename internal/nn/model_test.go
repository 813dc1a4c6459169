package nn

import (
	"math"
	"math/rand"
	"testing"
)

func TestCtxValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewRecurrentModel("m", 3, 2, 4, NewRNNCell("c", 4, 4, rng), rng)

	// nil ctx is zero-filled when the model expects context.
	p1, _ := m.Forward([]float64{1, 2, 3}, nil)
	p2, _ := m.Forward([]float64{1, 2, 3}, []float64{0, 0})
	if p1 != p2 {
		t.Fatal("nil ctx should behave like zero ctx")
	}
	// Non-zero ctx changes the prediction.
	p3, _ := m.Forward([]float64{1, 2, 3}, []float64{1, -1})
	if p3 == p1 {
		t.Fatal("ctx has no effect on the prediction")
	}

	// Wrong window or ctx length panics.
	for _, fn := range []func(){
		func() { m.Forward([]float64{1, 2}, nil) },
		func() { m.Forward([]float64{1, 2, 3}, []float64{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestCtxFreeModelIgnoresCtx(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewRecurrentModel("m", 3, 0, 4, NewRNNCell("c", 4, 4, rng), rng)
	p1, _ := m.Forward([]float64{1, 2, 3}, nil)
	p2, _ := m.Forward([]float64{1, 2, 3}, []float64{9, 9, 9}) // ignored: CtxSize 0
	if p1 != p2 {
		t.Fatal("ctx-free model must ignore ctx")
	}
	if m.CtxSize() != 0 {
		t.Fatal("CtxSize wrong")
	}
}

func TestModelMetadata(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	models := []Model{
		NewRecurrentModel("rec", 5, 2, 4, NewGRUCell("c", 4, 6, rng), rng),
		NewAttentiveGRUModel("att", 5, 2, 4, 6, rng),
		NewTransformerModel("tf", 5, 2, 4, 8, rng),
	}
	for _, m := range models {
		if m.WindowSize() != 5 || m.CtxSize() != 2 {
			t.Errorf("%s: ws %d ctx %d", m.Name(), m.WindowSize(), m.CtxSize())
		}
		if NumParams(m.Params()) == 0 {
			t.Errorf("%s: no parameters", m.Name())
		}
	}
}

func TestParamsAreDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := NewAttentiveGRUModel("m", 4, 1, 4, 4, rng)
	seen := map[*Param]bool{}
	names := map[string]bool{}
	for _, p := range m.Params() {
		if seen[p] {
			t.Fatalf("parameter %s listed twice", p.Name)
		}
		if names[p.Name] {
			t.Fatalf("duplicate parameter name %s", p.Name)
		}
		seen[p] = true
		names[p.Name] = true
	}
}

func TestAttentionPermutationSensitivity(t *testing.T) {
	// Attention plus GRU must distinguish input order.
	rng := rand.New(rand.NewSource(5))
	m := NewAttentiveGRUModel("m", 4, 0, 6, 6, rng)
	p1, _ := m.Forward([]float64{0.1, 0.9, 0.2, 0.8}, nil)
	p2, _ := m.Forward([]float64{0.8, 0.2, 0.9, 0.1}, nil)
	if p1 == p2 {
		t.Fatal("model insensitive to input order")
	}
}

// TestBackwardSkipsH0 checks that skipping dL/dh₀ at the first timestep
// leaves every gradient bit-equal to the full backward pass, for each
// recurrent model, accumulated over several windows.
func TestBackwardSkipsH0(t *testing.T) {
	type skipper interface {
		Model
		backward(cache any, dPred float64, wantH0 bool)
	}
	for name, build := range map[string]func(rng *rand.Rand) skipper{
		"rnn":           func(rng *rand.Rand) skipper { return NewRecurrentModel("m", 6, 2, 8, NewRNNCell("c", 8, 8, rng), rng) },
		"gru":           func(rng *rand.Rand) skipper { return NewRecurrentModel("m", 6, 2, 8, NewGRUCell("c", 8, 8, rng), rng) },
		"lstm":          func(rng *rand.Rand) skipper { return NewRecurrentModel("m", 6, 2, 8, NewLSTMCell("c", 8, 8, rng), rng) },
		"attentive gru": func(rng *rand.Rand) skipper { return NewAttentiveGRUModel("m", 6, 2, 8, 8, rng) },
	} {
		full, skip := build(rand.New(rand.NewSource(9))), build(rand.New(rand.NewSource(9)))
		rng := rand.New(rand.NewSource(10))
		window, ctx := make([]float64, 6), make([]float64, 2)
		for w := 0; w < 5; w++ {
			for i := range window {
				window[i] = rng.Float64()
			}
			ctx[0], ctx[1] = rng.Float64(), rng.Float64()
			dPred := rng.NormFloat64()
			_, c := full.Forward(window, ctx)
			full.backward(c, dPred, true)
			_, c = skip.Forward(window, ctx)
			skip.backward(c, dPred, false)
		}
		want, got := full.Params(), skip.Params()
		for i, p := range want {
			for j, g := range p.G.Data {
				if math.Float64bits(got[i].G.Data[j]) != math.Float64bits(g) {
					t.Fatalf("%s: %s.G[%d] = %v skipping dL/dh₀, %v in full", name, p.Name, j, got[i].G.Data[j], g)
				}
			}
		}
	}
}
