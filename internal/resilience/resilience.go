// Package resilience is the fault-handling layer of the pipeline: error
// classification (retryable vs fatal), a retry policy with deterministic
// seed jitter and graceful degradation, and an injectable fault hook used
// by tests to prove each recovery path actually recovers.
//
// The package sits below every other internal package (it imports only
// the standard library), so core, nn, baselines and experiments can all
// share one vocabulary for failure.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// retryableError marks an error as transient: re-running the failed stage
// with fresh randomness may succeed (e.g. DP-noise-induced training
// divergence, where a different noise draw usually converges).
type retryableError struct{ err error }

func (e *retryableError) Error() string   { return e.err.Error() }
func (e *retryableError) Unwrap() error   { return e.err }
func (e *retryableError) Retryable() bool { return true }

// MarkRetryable wraps err so IsRetryable reports true. A nil err stays nil.
func MarkRetryable(err error) error {
	if err == nil {
		return nil
	}
	return &retryableError{err: err}
}

// retryAfterError is a retryable error carrying a server-directed
// backoff hint (an HTTP Retry-After, typically).
type retryAfterError struct {
	err   error
	after time.Duration
}

func (e *retryAfterError) Error() string   { return e.err.Error() }
func (e *retryAfterError) Unwrap() error   { return e.err }
func (e *retryAfterError) Retryable() bool { return true }

// MarkRetryAfter wraps err as retryable with an explicit backoff hint:
// Retry waits `after` (capped by Policy.MaxDelay) instead of the
// policy's own schedule before the next attempt. A nil err stays nil.
func MarkRetryAfter(err error, after time.Duration) error {
	if err == nil {
		return nil
	}
	return &retryAfterError{err: err, after: after}
}

// RetryAfterHint extracts the backoff hint from an error chain.
func RetryAfterHint(err error) (time.Duration, bool) {
	var r *retryAfterError
	if errors.As(err, &r) {
		return r.after, true
	}
	return 0, false
}

// IsRetryable reports whether retrying the failed operation with fresh
// randomness could plausibly succeed. Context cancellation and deadline
// expiry are never retryable: they express the caller's intent to stop.
func IsRetryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var r interface{ Retryable() bool }
	return errors.As(err, &r) && r.Retryable()
}

// Policy bounds how hard a stage tries before giving up (or degrading to
// a fallback). The zero value means a single attempt and no jitter, which
// reproduces pre-resilience behaviour exactly.
type Policy struct {
	// MaxAttempts is the total number of tries per stage; values < 1 are
	// treated as 1 (no retry).
	MaxAttempts int
	// SeedJitter is added to the stage's seed once per retry, so each
	// attempt draws different DP noise and initial weights while the whole
	// schedule stays deterministic. A prime far from typical rep strides
	// avoids colliding with seed+rep sequences.
	SeedJitter int64
	// BaseDelay, when positive, makes Retry sleep before each retry:
	// BaseDelay before attempt 1, doubling per attempt (deterministic
	// exponential backoff, no jitter — reproducibility beats thundering-
	// herd smoothing at this scale). Zero keeps the historical behaviour
	// of immediate retries.
	BaseDelay time.Duration
	// MaxDelay caps the backoff, including server-directed Retry-After
	// hints. Zero with a positive BaseDelay defaults to 30s.
	MaxDelay time.Duration
	// MaxElapsed, when positive, bounds the total wall-clock time Retry
	// spends across all attempts: once starting the next backoff sleep
	// would push past the cap, Retry gives up and returns the last error
	// instead. Supervised restart loops set this so a stage that keeps
	// failing cannot back off unboundedly and stall the pipeline.
	MaxElapsed time.Duration
}

// DefaultPolicy retries twice with a prime jitter.
func DefaultPolicy() Policy { return Policy{MaxAttempts: 3, SeedJitter: 9973} }

// Attempts returns MaxAttempts clamped to at least one.
func (p Policy) Attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// DelayFor returns the deterministic backoff before the given retry
// (attempt >= 1): BaseDelay << (attempt-1), capped at MaxDelay. A hint
// (from MarkRetryAfter, i.e. a server's Retry-After) overrides the
// schedule but still respects the cap — a confused upstream must not
// park the pipeline for an hour.
func (p Policy) DelayFor(attempt int, hint time.Duration, hinted bool) time.Duration {
	if p.BaseDelay <= 0 && !hinted {
		return 0
	}
	max := p.MaxDelay
	if max <= 0 {
		max = 30 * time.Second
	}
	d := p.BaseDelay
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if hinted && hint > 0 {
		d = hint
	}
	if d > max {
		d = max
	}
	return d
}

// Retry runs fn up to p.Attempts() times. fn receives the zero-based
// attempt index and the deterministic seed offset for that attempt
// (attempt*SeedJitter, so attempt 0 runs with the caller's exact seed).
// It stops early on success, on a non-retryable error, or when ctx is
// done, and returns the last error. Between attempts it sleeps the
// policy's deterministic backoff (see DelayFor; zero BaseDelay means
// the historical immediate retry), honouring ctx cancellation. A
// positive MaxElapsed additionally stops retrying once the next sleep
// would exceed the total time budget.
func Retry(ctx context.Context, p Policy, fn func(attempt int, seedOffset int64) error) error {
	start := time.Now()
	var last error
	for a := 0; a < p.Attempts(); a++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if a > 0 {
			hint, hinted := RetryAfterHint(last)
			d := p.DelayFor(a, hint, hinted)
			if p.MaxElapsed > 0 && time.Since(start)+d > p.MaxElapsed {
				return last
			}
			if d > 0 {
				t := time.NewTimer(d)
				select {
				case <-ctx.Done():
					t.Stop()
					return ctx.Err()
				case <-t.C:
				}
			}
		}
		last = fn(a, int64(a)*p.SeedJitter)
		if last == nil || !IsRetryable(last) {
			return last
		}
	}
	return last
}

// Report records how a run recovered from failures; it is attached to
// results so degradation is visible rather than silent.
type Report struct {
	// Attempts is the total number of pipeline attempts, across every
	// model in the fallback chain. 1 means a clean first-try run.
	Attempts int `json:"attempts"`
	// Degraded is true when the run fell back past its configured model.
	Degraded bool `json:"degraded"`
	// Final names whatever configuration ultimately succeeded (e.g. the
	// model kind).
	Final string `json:"final"`
	// Errors holds the messages of the failed attempts, in order.
	Errors []string `json:"errors,omitempty"`
}

// Note appends a failed attempt's error message.
func (r *Report) Note(err error) {
	if err != nil {
		r.Errors = append(r.Errors, err.Error())
	}
}

// String renders a one-line human summary.
func (r *Report) String() string {
	if r == nil {
		return "recovery: none"
	}
	if r.Attempts <= 1 && !r.Degraded {
		return fmt.Sprintf("recovery: clean (final %s)", r.Final)
	}
	return fmt.Sprintf("recovery: %d attempts, degraded=%v, final %s", r.Attempts, r.Degraded, r.Final)
}
