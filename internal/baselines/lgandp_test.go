package baselines

import (
	"context"
	"errors"
	"testing"
)

// pollCountingCtx reports context.Canceled from its cancelAt-th Err() poll
// on (never, when cancelAt is 0) and counts every poll, so a test can pin
// exactly where a release stopped without relying on timing.
type pollCountingCtx struct {
	context.Context
	cancelAt int
	polls    int
}

func (c *pollCountingCtx) Err() error {
	c.polls++
	if c.cancelAt > 0 && c.polls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// LGAN-DP polls its context once per training iteration and once per
// synthesis row; a cancellation seen at any poll ends the release there,
// with context.Canceled and no matrix.
func TestLGANDPReleaseCancelsMidRun(t *testing.T) {
	in := testInput(4, 4, 30, 24, 1)
	g := NewLGANDP()
	rows := in.Truth().Cy
	full := g.Iterations + rows

	clean := &pollCountingCtx{Context: context.Background()}
	if _, err := g.Release(clean, in, 10, 7); err != nil {
		t.Fatalf("uncancelled release: %v", err)
	}
	if clean.polls != full {
		t.Fatalf("uncancelled release polled %d times, want %d iterations + %d rows", clean.polls, g.Iterations, rows)
	}

	for _, tc := range []struct {
		name     string
		cancelAt int
	}{
		{"first-iteration", 1},
		{"mid-training", g.Iterations / 2},
		{"first-synthesis-row", g.Iterations + 1},
		{"last-synthesis-row", full},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := &pollCountingCtx{Context: context.Background(), cancelAt: tc.cancelAt}
			rel, err := g.Release(ctx, in, 10, 7)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if rel != nil {
				t.Fatal("cancelled release returned a matrix")
			}
			if ctx.polls != tc.cancelAt {
				t.Fatalf("release polled %d times, want to stop at the first cancelled poll (%d)", ctx.polls, tc.cancelAt)
			}
		})
	}
}
