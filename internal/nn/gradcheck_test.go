package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// numericalGrad estimates dLoss/dw for every weight of every parameter by
// central differences and compares against the analytic gradient
// accumulated by one Backward pass. loss must be deterministic.
func checkModelGradients(t *testing.T, m Model, window, ctx []float64, target float64, tol float64) {
	t.Helper()
	params := m.Params()
	loss := func() float64 {
		p, _ := m.Forward(window, ctx)
		d := p - target
		return d * d
	}
	ZeroGrads(params)
	pred, cache := m.Forward(window, ctx)
	m.Backward(cache, 2*(pred-target))
	const h = 1e-6
	for _, p := range params {
		for i := range p.W.Data {
			orig := p.W.Data[i]
			p.W.Data[i] = orig + h
			lp := loss()
			p.W.Data[i] = orig - h
			lm := loss()
			p.W.Data[i] = orig
			num := (lp - lm) / (2 * h)
			ana := p.G.Data[i]
			scale := math.Max(1, math.Max(math.Abs(num), math.Abs(ana)))
			if math.Abs(num-ana)/scale > tol {
				t.Fatalf("%s[%d]: analytic %.8g vs numeric %.8g", p.Name, i, ana, num)
			}
		}
	}
}

func testWindow(rng *rand.Rand, ws int) ([]float64, []float64, float64) {
	w := make([]float64, ws)
	for i := range w {
		w[i] = rng.Float64()
	}
	ctx := []float64{rng.Float64(), rng.Float64()}
	return w, ctx, rng.Float64()
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, act := range []Activation{Linear, Tanh, Sigmoid, ReLU} {
		d := newDense("d", 4, 3, act, rng)
		beginPass := onArena(d)
		x := []float64{0.3, -0.2, 0.7, 0.1}
		dy := []float64{0.5, -1.2, 0.8}
		ZeroGrads(d.Params())
		beginPass()
		_, cache := d.Forward(x)
		// dx lives in the arena, which the loss passes below rewind.
		dx := append([]float64(nil), d.Backward(cache, dy)...)
		// Numeric check of input gradient via scalar loss L = dy·y.
		loss := func() float64 {
			beginPass()
			y, _ := d.Forward(x)
			var s float64
			for i := range y {
				s += dy[i] * y[i]
			}
			return s
		}
		const h = 1e-6
		for i := range x {
			orig := x[i]
			x[i] = orig + h
			lp := loss()
			x[i] = orig - h
			lm := loss()
			x[i] = orig
			num := (lp - lm) / (2 * h)
			if math.Abs(num-dx[i]) > 1e-5 {
				t.Fatalf("act %v dx[%d]: analytic %v vs numeric %v", act, i, dx[i], num)
			}
		}
		// Numeric check of weight gradients.
		for _, p := range d.Params() {
			for i := range p.W.Data {
				orig := p.W.Data[i]
				p.W.Data[i] = orig + h
				lp := loss()
				p.W.Data[i] = orig - h
				lm := loss()
				p.W.Data[i] = orig
				num := (lp - lm) / (2 * h)
				if math.Abs(num-p.G.Data[i]) > 1e-5 {
					t.Fatalf("act %v %s[%d]: analytic %v vs numeric %v", act, p.Name, i, p.G.Data[i], num)
				}
			}
		}
	}
}

func TestRNNModelGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cell := NewRNNCell("rnn", 3, 4, rng)
	m := NewRecurrentModel("m", 5, 2, 3, cell, rng)
	w, ctx, target := testWindow(rng, 5)
	checkModelGradients(t, m, w, ctx, target, 1e-4)
}

func TestGRUModelGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cell := NewGRUCell("gru", 3, 4, rng)
	m := NewRecurrentModel("m", 5, 2, 3, cell, rng)
	w, ctx, target := testWindow(rng, 5)
	checkModelGradients(t, m, w, ctx, target, 1e-4)
}

func TestLSTMModelGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cell := NewLSTMCell("lstm", 3, 4, rng)
	m := NewRecurrentModel("m", 5, 2, 3, cell, rng)
	w, ctx, target := testWindow(rng, 5)
	checkModelGradients(t, m, w, ctx, target, 1e-4)
}

func TestAttentiveGRUModelGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewAttentiveGRUModel("m", 4, 2, 3, 4, rng)
	w, ctx, target := testWindow(rng, 4)
	checkModelGradients(t, m, w, ctx, target, 1e-4)
}

func TestTransformerModelGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := NewTransformerModel("m", 4, 2, 4, 8, rng)
	w, ctx, target := testWindow(rng, 4)
	checkModelGradients(t, m, w, ctx, target, 1e-4)
}

func TestLSTMStateLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cell := NewLSTMCell("l", 2, 3, rng)
	onArena(cell) // Step allocates from the arena a model would wire
	if cell.StateSize() != 6 || cell.OutputSize() != 3 {
		t.Fatalf("state %d output %d", cell.StateSize(), cell.OutputSize())
	}
	state := ZeroState(cell)
	if len(state) != 6 {
		t.Fatalf("zero state length %d", len(state))
	}
	newState, _ := cell.Step([]float64{0.5, -0.5}, state)
	if len(newState) != 6 {
		t.Fatalf("new state length %d", len(newState))
	}
}

func TestParamUtilities(t *testing.T) {
	p := NewParam("p", 2, 2)
	p.G.Fill(3)
	// Norm = sqrt(4*9) = 6; clip to 3 → all entries scaled by 0.5.
	pre := ClipGrads([]*Param{p}, 3)
	if math.Abs(pre-6) > 1e-12 {
		t.Fatalf("pre-clip norm %v", pre)
	}
	for _, g := range p.G.Data {
		if math.Abs(g-1.5) > 1e-12 {
			t.Fatalf("clipped grad %v", g)
		}
	}
	if NumParams([]*Param{p}) != 4 {
		t.Fatal("NumParams wrong")
	}
	if err := CheckFinite([]*Param{p}); err != nil {
		t.Fatal(err)
	}
	p.W.Data[0] = math.NaN()
	if err := CheckFinite([]*Param{p}); err == nil {
		t.Fatal("expected non-finite error")
	}
}

func TestClipGradsNoOp(t *testing.T) {
	p := NewParam("p", 1, 2)
	p.G.Data[0] = 1
	ClipGrads([]*Param{p}, 0) // disabled
	if p.G.Data[0] != 1 {
		t.Fatal("disabled clipping modified gradients")
	}
	ClipGrads([]*Param{p}, 10) // within bounds
	if p.G.Data[0] != 1 {
		t.Fatal("within-bounds clipping modified gradients")
	}
}

func TestSigmoidStability(t *testing.T) {
	if v := mat.Sigmoid(1000); v != 1 {
		t.Fatalf("sigmoid(1000) = %v", v)
	}
	if v := mat.Sigmoid(-1000); v != 0 {
		t.Fatalf("sigmoid(-1000) = %v", v)
	}
	if math.Abs(mat.Sigmoid(0)-0.5) > 1e-15 {
		t.Fatalf("sigmoid(0) = %v", mat.Sigmoid(0))
	}
}
