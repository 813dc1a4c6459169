package parallel

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// recoverTaskPanic runs f and returns the *TaskPanic it panics with.
func recoverTaskPanic(t *testing.T, f func()) *TaskPanic {
	t.Helper()
	var tp *TaskPanic
	func() {
		defer func() {
			v := recover()
			if v == nil {
				t.Fatal("no panic reached the calling goroutine")
			}
			var ok bool
			if tp, ok = v.(*TaskPanic); !ok {
				t.Fatalf("panic value %T, want *TaskPanic", v)
			}
		}()
		f()
	}()
	return tp
}

func TestForEachPanicAnnotatedAndCancelled(t *testing.T) {
	const n = 100_000
	var ran atomic.Int64
	tp := recoverTaskPanic(t, func() {
		ForEach(4, n, func(i int) {
			if i == 3 {
				panic("boom")
			}
			// Each task but 3 holds its worker for a fixed 10µs. The
			// worker that claims task 3 may lose its CPU before it can
			// stop the pool; with empty tasks the other three drained the
			// whole range in a millisecond or two of that, while here
			// passing n/2 keeps them busy for over 0.15 s.
			for start := time.Now(); time.Since(start) < 10*time.Microsecond; {
			}
			ran.Add(1)
		})
	})
	if tp.Index != 3 {
		t.Fatalf("Index = %d, want 3", tp.Index)
	}
	if tp.Value != "boom" {
		t.Fatalf("Value = %v, want boom", tp.Value)
	}
	if len(tp.Stack) == 0 || !strings.Contains(tp.Error(), "task 3 panicked: boom") {
		t.Fatalf("unhelpful panic: %s", tp.Error())
	}
	// The pool must have stopped claiming work after the panic: with the
	// panic at index 3 and 4 workers, only a handful of extra tasks may
	// already be in flight.
	if got := ran.Load(); got > n/2 {
		t.Fatalf("%d of %d tasks ran after the panic; remaining work was not cancelled", got, n)
	}
}

func TestForEachShardPanicNamesShard(t *testing.T) {
	tp := recoverTaskPanic(t, func() {
		ForEachShard(4, 40, func(s int, r Range) {
			if s == 2 {
				panic(errors.New("shard blew up"))
			}
		})
	})
	if tp.Index != 2 {
		t.Fatalf("Index = %d, want shard 2", tp.Index)
	}
	var err error = tp
	if !strings.Contains(errors.Unwrap(err).Error(), "shard blew up") {
		t.Fatalf("Unwrap lost the original error: %v", errors.Unwrap(err))
	}
}

func TestDoPanicOutranksError(t *testing.T) {
	// With workers == n every task is claimed before any stop flag can
	// matter; the barrier makes the error and the panic genuinely
	// concurrent, so the test pins the precedence rule rather than a
	// scheduling accident.
	var started atomic.Int64
	barrier := func() {
		started.Add(1)
		for started.Load() < 4 {
		}
	}
	tp := recoverTaskPanic(t, func() {
		_ = Do(context.Background(), 4, 4, func(i int) error {
			barrier()
			switch i {
			case 1:
				return errors.New("plain failure")
			case 2:
				panic("worse failure")
			}
			return nil
		})
	})
	if tp.Index != 2 || tp.Value != "worse failure" {
		t.Fatalf("TaskPanic = %+v", tp)
	}
}

// TestForEachPanicLowestIndexWins forces several concurrent panics and
// checks the deterministic selection rule.
func TestForEachPanicLowestIndexWins(t *testing.T) {
	gate := make(chan struct{})
	tp := recoverTaskPanic(t, func() {
		ForEach(4, 4, func(i int) {
			// All four tasks panic together, after everyone started.
			if i == 3 {
				close(gate)
			}
			<-gate
			panic(i)
		})
	})
	if tp.Index != 0 || tp.Value != 0 {
		t.Fatalf("got panic from task %d (value %v), want task 0", tp.Index, tp.Value)
	}
}
