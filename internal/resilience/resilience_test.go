package resilience

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestRetryableClassification(t *testing.T) {
	if IsRetryable(nil) {
		t.Fatal("nil is retryable")
	}
	plain := errors.New("boom")
	if IsRetryable(plain) {
		t.Fatal("plain error is retryable")
	}
	marked := MarkRetryable(plain)
	if !IsRetryable(marked) {
		t.Fatal("marked error not retryable")
	}
	if !errors.Is(marked, plain) {
		t.Fatal("marking breaks the error chain")
	}
	// Wrapping a marked error keeps it retryable.
	wrapped := fmt.Errorf("outer: %w", marked)
	if !IsRetryable(wrapped) {
		t.Fatal("wrapped marked error not retryable")
	}
	// Cancellation is the caller's intent to stop — never retryable,
	// even when something marked it.
	if IsRetryable(context.Canceled) || IsRetryable(context.DeadlineExceeded) {
		t.Fatal("context errors must not be retryable")
	}
	if IsRetryable(MarkRetryable(fmt.Errorf("t: %w", context.Canceled))) {
		t.Fatal("marked cancellation must not be retryable")
	}
	if MarkRetryable(nil) != nil {
		t.Fatal("MarkRetryable(nil) != nil")
	}
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	var offsets []int64
	p := Policy{MaxAttempts: 4, SeedJitter: 100}
	err := Retry(context.Background(), p, func(attempt int, off int64) error {
		offsets = append(offsets, off)
		if attempt < 2 {
			return MarkRetryable(errors.New("diverged"))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Retry: %v", err)
	}
	want := []int64{0, 100, 200}
	if len(offsets) != len(want) {
		t.Fatalf("attempts = %v", offsets)
	}
	for i, w := range want {
		if offsets[i] != w {
			t.Fatalf("offset[%d] = %d, want %d", i, offsets[i], w)
		}
	}
}

func TestRetryStopsOnFatalError(t *testing.T) {
	fatal := errors.New("bad config")
	calls := 0
	err := Retry(context.Background(), Policy{MaxAttempts: 5}, func(int, int64) error {
		calls++
		return fatal
	})
	if !errors.Is(err, fatal) || calls != 1 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	calls := 0
	err := Retry(context.Background(), Policy{MaxAttempts: 3}, func(int, int64) error {
		calls++
		return MarkRetryable(errors.New("still diverged"))
	})
	if err == nil || calls != 3 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
	// The exhausted error stays retryable so outer layers can degrade.
	if !IsRetryable(err) {
		t.Fatal("exhausted error lost its class")
	}
}

func TestRetryMaxElapsedCapsBackoff(t *testing.T) {
	// A supervised restart loop must not back off unboundedly: with a
	// 2ms base delay and a 20ms total budget, far fewer than the 1000
	// allowed attempts can run before the cap refuses the next sleep.
	p := Policy{MaxAttempts: 1000, BaseDelay: 2 * time.Millisecond,
		MaxDelay: 2 * time.Millisecond, MaxElapsed: 20 * time.Millisecond}
	attempts := 0
	boom := errors.New("still failing")
	start := time.Now()
	err := Retry(context.Background(), p, func(int, int64) error {
		attempts++
		return MarkRetryable(boom)
	})
	elapsed := time.Since(start)
	if !errors.Is(err, boom) {
		t.Fatalf("want the last error back, got %v", err)
	}
	// The cap, not the attempt count, must have stopped the loop: at
	// least two attempts ran (the first is free), but nowhere near 1000,
	// and the sum of sleeps stayed in the budget's ballpark.
	if attempts < 2 || attempts >= 1000 {
		t.Fatalf("attempts = %d, want a handful bounded by MaxElapsed", attempts)
	}
	if attempts > 12 {
		t.Fatalf("attempts = %d exceeds the ~10 the 20ms budget allows for 2ms sleeps", attempts)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("retry loop ran %v despite a 20ms MaxElapsed", elapsed)
	}
	// Zero MaxElapsed keeps the historical behaviour: attempts bound.
	p.MaxElapsed = 0
	p.MaxAttempts = 3
	attempts = 0
	if err := Retry(context.Background(), p, func(int, int64) error {
		attempts++
		return MarkRetryable(boom)
	}); !errors.Is(err, boom) || attempts != 3 {
		t.Fatalf("uncapped policy: err=%v attempts=%d, want 3 attempts", err, attempts)
	}
}

func TestRetryHonoursCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := Retry(ctx, Policy{MaxAttempts: 3}, func(int, int64) error {
		calls++
		return MarkRetryable(errors.New("x"))
	})
	if !errors.Is(err, context.Canceled) || calls != 0 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestZeroPolicyIsSingleAttempt(t *testing.T) {
	calls := 0
	_ = Retry(context.Background(), Policy{}, func(int, int64) error {
		calls++
		return MarkRetryable(errors.New("x"))
	})
	if calls != 1 {
		t.Fatalf("calls = %d", calls)
	}
}

func TestInjectorFireAndCount(t *testing.T) {
	// No injector in the context: Fire is a nil no-op.
	if err := Fire(context.Background(), FaultTrainStep, nil); err != nil {
		t.Fatalf("bare Fire: %v", err)
	}

	inj := NewInjector()
	boom := errors.New("injected")
	inj.On(FaultRelease, func(_ context.Context, payload any) error {
		if payload.(string) == "identity" {
			return boom
		}
		return nil
	})
	ctx := WithInjector(context.Background(), inj)
	if err := Fire(ctx, FaultRelease, "fast"); err != nil {
		t.Fatalf("unexpected: %v", err)
	}
	if err := Fire(ctx, FaultRelease, "identity"); !errors.Is(err, boom) {
		t.Fatalf("want injected error, got %v", err)
	}
	// Unhooked points still count fires.
	_ = Fire(ctx, FaultTrainStep, nil)
	if inj.Fired(FaultRelease) != 2 || inj.Fired(FaultTrainStep) != 1 {
		t.Fatalf("fired = %d/%d", inj.Fired(FaultRelease), inj.Fired(FaultTrainStep))
	}
	var nilInj *Injector
	if nilInj.Fired(FaultRelease) != 0 {
		t.Fatal("nil injector counts")
	}
}

func TestInjectorHookMutatesPayload(t *testing.T) {
	inj := NewInjector().On(FaultTrainStep, func(_ context.Context, payload any) error {
		*(payload.(*float64)) = -1
		return nil
	})
	ctx := WithInjector(context.Background(), inj)
	v := 1.0
	if err := Fire(ctx, FaultTrainStep, &v); err != nil || v != -1 {
		t.Fatalf("err=%v v=%v", err, v)
	}
}

func TestReportString(t *testing.T) {
	var r *Report
	if r.String() == "" {
		t.Fatal("nil report string empty")
	}
	r = &Report{Attempts: 3, Degraded: true, Final: "persistence"}
	r.Note(errors.New("diverged"))
	if len(r.Errors) != 1 || r.String() == "" {
		t.Fatalf("report %+v", r)
	}
}
