package nn

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// fitWithWorkers trains a freshly seeded model and returns per-epoch
// losses plus the final flattened weights.
func fitWithWorkers(t *testing.T, mk func(*rand.Rand) Model, workers int) ([]float64, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	m := mk(rng)
	tr := &Trainer{Model: m, Opt: NewAdam(3e-3),
		Cfg:     TrainConfig{Epochs: 4, BatchSize: 8, ClipNorm: 5},
		Rng:     rand.New(rand.NewSource(99)),
		Workers: workers,
	}
	losses, err := tr.FitContext(context.Background(), sineWindows(60, 6))
	if err != nil {
		t.Fatal(err)
	}
	var weights []float64
	for _, p := range m.Params() {
		weights = append(weights, p.W.Data...)
	}
	return losses, weights
}

func modelMakers() map[string]func(*rand.Rand) Model {
	return map[string]func(*rand.Rand) Model{
		"rnn": func(rng *rand.Rand) Model { return NewRecurrentModel("rnn", 6, 0, 8, NewRNNCell("c", 8, 10, rng), rng) },
		"gru": func(rng *rand.Rand) Model { return NewRecurrentModel("gru", 6, 0, 8, NewGRUCell("c", 8, 10, rng), rng) },
		"lstm": func(rng *rand.Rand) Model {
			return NewRecurrentModel("lstm", 6, 0, 8, NewLSTMCell("c", 8, 10, rng), rng)
		},
		"attentivegru": func(rng *rand.Rand) Model { return NewAttentiveGRUModel("att", 6, 0, 8, 10, rng) },
		"transformer":  func(rng *rand.Rand) Model { return NewTransformerModel("tf", 6, 0, 8, 16, rng) },
	}
}

// Workers=0 (zero value) and Workers=1 must both take the serial path and
// reproduce each other bit for bit.
func TestFitSerialWorkerCountsBitIdentical(t *testing.T) {
	for name, mk := range modelMakers() {
		l0, w0 := fitWithWorkers(t, mk, 0)
		l1, w1 := fitWithWorkers(t, mk, 1)
		if !equalF64(l0, l1) || !equalF64(w0, w1) {
			t.Errorf("%s: Workers=0 and Workers=1 diverge", name)
		}
	}
}

// Same seed + Workers=N must be self-consistent: two runs produce
// bit-identical losses and weights, because shard layout and reduction
// order depend only on (batch size, N).
func TestFitParallelDeterministic(t *testing.T) {
	for name, mk := range modelMakers() {
		for _, workers := range []int{2, 4} {
			la, wa := fitWithWorkers(t, mk, workers)
			lb, wb := fitWithWorkers(t, mk, workers)
			if !equalF64(la, lb) || !equalF64(wa, wb) {
				t.Errorf("%s: Workers=%d not deterministic across runs", name, workers)
			}
		}
	}
}

// Parallel training regroups float sums but must stay numerically close
// to serial: it is the same gradient up to reduction order.
func TestFitParallelMatchesSerialApprox(t *testing.T) {
	for name, mk := range modelMakers() {
		ls, _ := fitWithWorkers(t, mk, 1)
		lp, _ := fitWithWorkers(t, mk, 4)
		for e := range ls {
			diff := math.Abs(ls[e] - lp[e])
			tol := 1e-6 * (1 + math.Abs(ls[e]))
			if diff > tol {
				t.Errorf("%s: epoch %d loss serial %v vs parallel %v", name, e, ls[e], lp[e])
			}
		}
	}
}

// A shadow clone must share weights, own private gradients, and compute
// the exact same forward pass as its base.
func TestShadowCloneSemantics(t *testing.T) {
	for name, mk := range modelMakers() {
		rng := rand.New(rand.NewSource(3))
		base := mk(rng)
		clone := base.(ShadowCloner).ShadowClone()
		if clone == nil {
			t.Fatalf("%s: ShadowClone returned nil", name)
		}
		bp, cp := base.Params(), clone.Params()
		if len(bp) != len(cp) {
			t.Fatalf("%s: param count %d vs %d", name, len(bp), len(cp))
		}
		for i := range bp {
			if bp[i].Name != cp[i].Name {
				t.Fatalf("%s: param %d name %q vs %q", name, i, bp[i].Name, cp[i].Name)
			}
			if bp[i].W != cp[i].W {
				t.Errorf("%s: %s weights not shared", name, bp[i].Name)
			}
			if bp[i].G == cp[i].G {
				t.Errorf("%s: %s gradients shared", name, bp[i].Name)
			}
		}
		window := make([]float64, 6)
		for i := range window {
			window[i] = 0.1 * float64(i)
		}
		pb, _ := base.Forward(window, nil)
		pc, cache := clone.Forward(window, nil)
		if pb != pc {
			t.Errorf("%s: clone forward %v != base %v", name, pc, pb)
		}
		// Backward on the clone must leave base gradients untouched.
		clone.Backward(cache, 1)
		for i := range bp {
			if bp[i].G.MaxAbs() != 0 {
				t.Errorf("%s: clone backward wrote base gradient %s", name, bp[i].Name)
			}
		}
		var cloneGrad float64
		for i := range cp {
			cloneGrad += cp[i].G.MaxAbs()
		}
		if cloneGrad == 0 {
			t.Errorf("%s: clone backward accumulated no gradient", name)
		}
	}
}

// Training with clones must not corrupt optimizer state keying: only base
// params are stepped, so a second serial fit must still work.
func TestParallelFitThenSerialFit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewAttentiveGRUModel("att", 6, 0, 8, 10, rng)
	tr := &Trainer{Model: m, Opt: NewAdam(3e-3),
		Cfg: TrainConfig{Epochs: 2, BatchSize: 8, ClipNorm: 5},
		Rng: rand.New(rand.NewSource(7)), Workers: 3}
	samples := sineWindows(60, 6)
	if _, err := tr.FitContext(context.Background(), samples); err != nil {
		t.Fatal(err)
	}
	tr.Workers = 0
	if _, err := tr.FitContext(context.Background(), samples); err != nil {
		t.Fatal(err)
	}
}

func equalF64(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// --- Per-step allocation budget: zero on an arena rewound per pass ------

func TestDenseForwardAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 8)
	for _, act := range []Activation{Linear, Tanh, Sigmoid, ReLU} {
		d := newDense("d", 8, 8, act, rng)
		beginPass := onArena(d)
		pass := func() {
			beginPass()
			d.Forward(x)
		}
		pass() // warm the arena and the cache pool
		if n := testing.AllocsPerRun(100, pass); n > 0 {
			t.Errorf("Dense.Forward(act=%d) allocates %v per pass, want 0", act, n)
		}
	}
}

func TestDenseBackwardAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 8)
	dy := make([]float64, 8)
	d := newDense("d", 8, 8, Tanh, rng)
	beginPass := onArena(d)
	pass := func() {
		beginPass()
		_, c := d.Forward(x)
		d.Backward(c, dy)
	}
	pass() // warm the arena, the cache pool and the gradient scratch
	if n := testing.AllocsPerRun(100, pass); n > 0 {
		t.Errorf("Dense Forward+Backward allocates %v per pass, want 0", n)
	}
}

func TestCellStepAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cells := map[string]RecurrentCell{
		"rnn":  NewRNNCell("r", 6, 10, rng),
		"gru":  NewGRUCell("g", 6, 10, rng),
		"lstm": NewLSTMCell("l", 6, 10, rng),
	}
	x := make([]float64, 6)
	for name, cell := range cells {
		beginPass := onArena(cell)
		state := ZeroState(cell)
		pass := func() {
			beginPass()
			cell.Step(x, state)
		}
		pass() // warm the arena, the cache pool and the gate scratch
		if n := testing.AllocsPerRun(100, pass); n > 0 {
			t.Errorf("%s.Step allocates %v per pass, want 0", name, n)
		}
	}
}
