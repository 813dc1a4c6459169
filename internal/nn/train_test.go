package nn

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/timeseries"
)

// sineWindows builds supervised windows from a clean sinusoid.
func sineWindows(n, ws int) []timeseries.Window {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 0.5 + 0.4*math.Sin(2*math.Pi*float64(i)/12)
	}
	return timeseries.SlidingWindows(vals, ws)
}

func trainAndEval(t *testing.T, m Model, opt Optimizer, samples []timeseries.Window) (first, last float64) {
	t.Helper()
	tr := &Trainer{Model: m, Opt: opt,
		Cfg: TrainConfig{Epochs: 30, BatchSize: 8, ClipNorm: 5},
		Rng: rand.New(rand.NewSource(99))}
	losses, err := tr.FitContext(context.Background(), samples)
	if err != nil {
		t.Fatal(err)
	}
	return losses[0], losses[len(losses)-1]
}

func TestRNNLearnsSine(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	samples := sineWindows(120, 6)
	m := NewRecurrentModel("rnn", 6, 0, 8, NewRNNCell("c", 8, 12, rng), rng)
	first, last := trainAndEval(t, m, NewRMSProp(1e-2), samples)
	if last > first/4 {
		t.Fatalf("RNN did not learn: first %v last %v", first, last)
	}
	truth := make([]float64, len(samples))
	pred := make([]float64, len(samples))
	for i, s := range samples {
		truth[i] = s.Target
		pred[i] = Predict(m, s.Input, s.Ctx)
	}
	mae, rmse := timeseries.MAE(truth, pred), timeseries.RMSE(truth, pred)
	if mae > 0.08 || rmse > 0.1 {
		t.Fatalf("RNN fit too poor: MAE %v RMSE %v", mae, rmse)
	}
}

func TestGRULearnsSine(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	samples := sineWindows(120, 6)
	m := NewRecurrentModel("gru", 6, 0, 8, NewGRUCell("c", 8, 12, rng), rng)
	first, last := trainAndEval(t, m, NewRMSProp(1e-2), samples)
	if last > first/4 {
		t.Fatalf("GRU did not learn: first %v last %v", first, last)
	}
}

func TestAttentiveGRULearnsSine(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	samples := sineWindows(120, 6)
	m := NewAttentiveGRUModel("att", 6, 0, 8, 12, rng)
	first, last := trainAndEval(t, m, NewRMSProp(1e-2), samples)
	if last > first/4 {
		t.Fatalf("attentive GRU did not learn: first %v last %v", first, last)
	}
}

func TestTransformerLearnsSine(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	samples := sineWindows(120, 6)
	m := NewTransformerModel("tf", 6, 0, 8, 16, rng)
	first, last := trainAndEval(t, m, NewAdam(3e-3), samples)
	if last > first/4 {
		t.Fatalf("transformer did not learn: first %v last %v", first, last)
	}
}

func TestOptimizersReduceLoss(t *testing.T) {
	samples := sineWindows(80, 4)
	for name, mk := range map[string]func() Optimizer{
		"rmsprop": func() Optimizer { return NewRMSProp(1e-2) },
		"adam":    func() Optimizer { return NewAdam(1e-2) },
	} {
		rng := rand.New(rand.NewSource(20))
		m := NewRecurrentModel(name, 4, 0, 6, NewRNNCell("c", 6, 8, rng), rng)
		first, last := trainAndEval(t, m, mk(), samples)
		if last >= first {
			t.Errorf("%s failed to reduce loss: %v -> %v", name, first, last)
		}
	}
}

func TestTrainerRejectsBadInput(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewRecurrentModel("m", 4, 0, 4, NewRNNCell("c", 4, 4, rng), rng)
	tr := &Trainer{Model: m, Opt: NewRMSProp(1e-3), Cfg: TrainConfig{Epochs: 20, BatchSize: 32, ClipNorm: 5}, Rng: rng}
	if _, err := tr.FitContext(context.Background(), nil); err == nil {
		t.Fatal("expected error on empty samples")
	}
	tr.Cfg.Epochs = 0
	if _, err := tr.FitContext(context.Background(), sineWindows(20, 4)); err == nil {
		t.Fatal("expected error on zero epochs")
	}
}

func TestRolloutLengthAndDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewRecurrentModel("m", 4, 0, 4, NewRNNCell("c", 4, 4, rng), rng)
	seed := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	a := Rollout(m, seed, nil, 7, nil)
	b := Rollout(m, seed, nil, 7, nil)
	if len(a) != 7 {
		t.Fatalf("rollout length %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("rollout not deterministic")
		}
	}
}

func TestRolloutPanicsOnShortSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewRecurrentModel("m", 4, 0, 4, NewRNNCell("c", 4, 4, rng), rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Rollout(m, []float64{1, 2}, nil, 3, nil)
}
