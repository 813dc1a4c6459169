package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/nn"
	"repro/internal/resilience"
)

// poisonParams NaN-poisons a training parameter set, simulating the
// divergence that heavy DP noise induces in the RNN/GRU/transformer phase.
func poisonParams(payload any) {
	params := payload.([]*nn.Param)
	params[0].W.Data[0] = math.NaN()
}

// TestRunRetriesAfterDivergence proves the retry path: training is
// NaN-poisoned on the first attempt only, so the second attempt (jittered
// seed) succeeds with the configured model intact.
func TestRunRetriesAfterDivergence(t *testing.T) {
	d := testDataset(8, 8, 60, 24, 1)
	cfg := tinyConfig()
	cfg.Retry = resilience.Policy{MaxAttempts: 3, SeedJitter: 101}

	runs := 0
	inj := resilience.NewInjector().On(resilience.FaultTrainStep, func(_ context.Context, payload any) error {
		runs++
		if runs == 1 { // only the first fired epoch of the first attempt
			poisonParams(payload)
		}
		return nil
	})
	ctx := resilience.WithInjector(context.Background(), inj)

	res, err := RunContext(ctx, d, cfg)
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	rec := res.Recovery
	if rec == nil || rec.Attempts != 2 || rec.Degraded || rec.Final != cfg.Model.String() {
		t.Fatalf("recovery = %+v", rec)
	}
	if len(rec.Errors) != 1 {
		t.Fatalf("errors = %v", rec.Errors)
	}
}

// TestRunDegradesToPersistence proves the fallback path: every training
// attempt diverges, so the run degrades to the model-free persistence
// pattern instead of failing, and records the degradation.
func TestRunDegradesToPersistence(t *testing.T) {
	d := testDataset(8, 8, 60, 24, 1)
	cfg := tinyConfig()
	cfg.Retry = resilience.Policy{MaxAttempts: 2, SeedJitter: 101}
	cfg.FallbackModels = []ModelKind{ModelPersistence}

	inj := resilience.NewInjector().On(resilience.FaultTrainStep, func(_ context.Context, payload any) error {
		poisonParams(payload) // every NN attempt diverges
		return nil
	})
	ctx := resilience.WithInjector(context.Background(), inj)

	res, err := RunContext(ctx, d, cfg)
	if err != nil {
		t.Fatalf("RunContext should degrade, not fail: %v", err)
	}
	rec := res.Recovery
	if rec == nil || !rec.Degraded || rec.Final != "persistence" {
		t.Fatalf("recovery = %+v", rec)
	}
	if rec.Attempts != 3 { // 2 diverged NN attempts + 1 persistence
		t.Fatalf("attempts = %d", rec.Attempts)
	}
	// The degraded release is still a valid DP matrix.
	if res.Sanitized == nil || res.Sanitized.Ct != d.T()-cfg.TTrain {
		t.Fatal("degraded run produced no release")
	}
	for _, v := range res.Sanitized.Data() {
		if math.IsNaN(v) {
			t.Fatal("degraded release contains NaN")
		}
	}
}

// TestRunFallbackSeedCountsChainAttempts: a fallback model's attempts
// take their seeds from the attempt count across the whole chain. A run
// that degrades to persistence after 2 diverged attempts equals, bit for
// bit, a direct persistence run at Seed + 2·SeedJitter — and not one at
// the caller's seed.
func TestRunFallbackSeedCountsChainAttempts(t *testing.T) {
	d := testDataset(8, 8, 60, 24, 1)
	cfg := tinyConfig()
	cfg.Retry = resilience.Policy{MaxAttempts: 2, SeedJitter: 101}
	cfg.FallbackModels = []ModelKind{ModelPersistence}
	inj := resilience.NewInjector().On(resilience.FaultTrainStep, func(_ context.Context, payload any) error {
		poisonParams(payload) // every NN attempt diverges
		return nil
	})
	degraded, err := RunContext(resilience.WithInjector(context.Background(), inj), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec := degraded.Recovery; rec.Attempts != 3 || !rec.Degraded {
		t.Fatalf("recovery = %+v, want 2 diverged attempts and a degraded third", rec)
	}
	direct := func(seed int64) *Result {
		c := cfg
		c.Model, c.FallbackModels, c.Seed = ModelPersistence, nil, seed
		res, err := RunContext(context.Background(), d, c)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	same := func(a, b *Result) bool {
		for i, v := range a.Sanitized.Data() {
			if math.Float64bits(v) != math.Float64bits(b.Sanitized.Data()[i]) {
				return false
			}
		}
		return true
	}
	if !same(degraded, direct(cfg.Seed+2*cfg.Retry.SeedJitter)) {
		t.Fatal("the degraded release differs from a persistence run at Seed + 2·SeedJitter")
	}
	if same(degraded, direct(cfg.Seed)) {
		t.Fatal("the degraded release equals a persistence run at the caller's seed: the seed does not tell the attempts apart")
	}
}

// TestRunFailsWithoutFallback: with retries exhausted and no fallback
// chain, the run fails with the (retryable) divergence error.
func TestRunFailsWithoutFallback(t *testing.T) {
	d := testDataset(8, 8, 60, 24, 1)
	cfg := tinyConfig()
	cfg.Retry = resilience.Policy{MaxAttempts: 2, SeedJitter: 101}
	cfg.FallbackModels = nil

	inj := resilience.NewInjector().On(resilience.FaultTrainStep, func(_ context.Context, payload any) error {
		poisonParams(payload)
		return nil
	})
	ctx := resilience.WithInjector(context.Background(), inj)

	if _, err := RunContext(ctx, d, cfg); err == nil {
		t.Fatal("expected failure without fallback")
	} else if !resilience.IsRetryable(err) {
		t.Fatalf("terminal error lost its class: %v", err)
	}
}

// TestRunContextCancelled: a cancelled context aborts immediately and is
// not retried.
func TestRunContextCancelled(t *testing.T) {
	d := testDataset(8, 8, 60, 24, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, d, tinyConfig()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

// TestRunDeadlineDuringTraining proves cancellation is cooperative inside
// the epoch loop: a fault hook stalls training past the deadline, and the
// run returns DeadlineExceeded promptly instead of retrying or falling
// back (deadline expiry is not retryable).
func TestRunDeadlineDuringTraining(t *testing.T) {
	d := testDataset(8, 8, 60, 24, 1)
	cfg := tinyConfig()
	cfg.Train.Epochs = 50 // long enough that the deadline lands mid-fit

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	inj := resilience.NewInjector().On(resilience.FaultTrainStep, func(ctx context.Context, _ any) error {
		<-ctx.Done() // delay past the deadline
		return nil
	})
	start := time.Now()
	_, err := RunContext(resilience.WithInjector(ctx, inj), d, cfg)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation not prompt: %v", elapsed)
	}
}

// TestRunRecoveryOnCleanRun: an untouched run reports a clean recovery.
func TestRunRecoveryOnCleanRun(t *testing.T) {
	d := testDataset(8, 8, 60, 24, 1)
	res, err := RunContext(context.Background(), d, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Recovery
	if rec == nil || rec.Attempts != 1 || rec.Degraded || len(rec.Errors) != 0 {
		t.Fatalf("recovery = %+v", rec)
	}
}
