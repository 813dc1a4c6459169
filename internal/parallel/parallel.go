// Package parallel is the deterministic execution layer shared by every
// hot path: a bounded worker pool over index ranges, contiguous sharding
// helpers, and ordering conventions that keep parallel results
// reproducible. The package enforces two invariants that the numeric
// code relies on:
//
//  1. Work assignment is positional, never racy: shards are contiguous
//     index ranges computed up front, so which goroutine touches which
//     indices depends only on (n, workers), not on scheduling.
//  2. Reductions happen in shard order after the join, so floating-point
//     accumulation has one well-defined grouping per worker count. At
//     workers <= 1 every helper degenerates to the plain serial loop,
//     reproducing the historical single-threaded results bit for bit.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// TaskPanic is the panic value ForEach, ForEachShard and Do re-throw on
// the calling goroutine when a task panics on a pool goroutine. Without
// this translation a panicking cell kills the whole process with a
// stack rooted in an anonymous pool worker — useless for finding which
// sweep cell blew up. Index is the failing task (or shard) index, Value
// the original panic value, and Stack the panicking goroutine's trace
// captured at recovery time. When several tasks panic before the pool
// drains, the lowest index wins, matching Do's deterministic error
// selection.
type TaskPanic struct {
	Index int
	Value any
	Stack []byte
}

func (p *TaskPanic) Error() string {
	return fmt.Sprintf("parallel: task %d panicked: %v\n%s", p.Index, p.Value, p.Stack)
}

// Unwrap exposes a panic value that already was an error.
func (p *TaskPanic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// Workers resolves a worker-count knob for callers that want "as parallel
// as the hardware": n > 0 is honoured verbatim, anything else maps to
// GOMAXPROCS. Library structs deliberately do NOT use this: their zero
// value means serial (see e.g. core.Config.Workers), and only the CLIs
// default to Workers(0).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Range is a half-open index interval [Lo, Hi).
type Range struct{ Lo, Hi int }

// Len returns the number of indices in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Shards splits [0, n) into at most workers contiguous, near-equal
// ranges. Empty ranges are never returned; n == 0 yields nil. The split
// depends only on (n, workers), which is what makes shard-ordered
// reductions deterministic.
func Shards(n, workers int) []Range {
	if n <= 0 {
		return nil
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	out := make([]Range, 0, workers)
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		out = append(out, Range{Lo: lo, Hi: hi})
	}
	return out
}

// ForEach runs fn(i) for every i in [0, n) on up to workers goroutines:
// Do with a background context and a task that cannot fail. fn must only
// write state owned by index i (disjoint writes need no synchronisation).
// workers <= 1 runs the plain serial loop on the calling goroutine.
//
// A panic in fn follows Do's rules: no new tasks start, the lowest
// panicking index wins, and it re-panics on the calling goroutine as a
// *TaskPanic naming that index. The serial path propagates the panic
// directly.
func ForEach(workers, n int, fn func(i int)) {
	_ = Do(context.Background(), workers, n, func(i int) error {
		fn(i)
		return nil
	})
}

// ForEachShard partitions [0, n) into contiguous shards (one per worker,
// at most workers of them) and runs fn(s, r) for each, one Do task per
// shard, where s is the shard index and r its range. Use this instead of
// ForEach when each worker needs private scratch state (e.g. a model
// clone): state can be keyed by s. With one shard the call runs serially
// on the caller. A panic re-panics as a *TaskPanic whose Index is the
// shard.
func ForEachShard(workers, n int, fn func(s int, r Range)) {
	shards := Shards(n, workers)
	ForEach(len(shards), len(shards), func(s int) { fn(s, shards[s]) })
}

// Do runs fn(i) for every i in [0, n) on up to workers goroutines with
// cooperative cancellation and deterministic error selection: whatever
// subset of tasks fails, the returned error is the one with the lowest
// index (so a parallel sweep reports the same failure a serial sweep
// would). After the first failure or context cancellation no new tasks
// are started; tasks already running finish normally. A panicking task
// is captured, remaining work cancelled, and the lowest-index panic
// re-panicked on the calling goroutine as a *TaskPanic (panics outrank
// returned errors).
//
// workers <= 1 preserves the historical serial sweep semantics exactly:
// tasks run in index order on the calling goroutine and the loop stops at
// the first error or cancellation.
func Do(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return ctx.Err()
	}
	var (
		next  atomic.Int64
		stop  atomic.Bool
		wg    sync.WaitGroup
		mu    sync.Mutex // guards first
		first *TaskPanic // the lowest-index panic so far
		errs  = make([]error, n)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if stop.Load() || ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if v := recover(); v != nil {
							stop.Store(true)
							stack := debug.Stack()
							mu.Lock()
							if first == nil || i < first.Index {
								first = &TaskPanic{Index: i, Value: v, Stack: stack}
							}
							mu.Unlock()
						}
					}()
					if err := fn(i); err != nil {
						errs[i] = err
						stop.Store(true)
					}
				}()
			}
		}()
	}
	wg.Wait()
	// A panic outranks any error: it means a task died without even
	// producing one, and hiding it behind a lower-index error would lose
	// the stack.
	if first != nil {
		panic(first)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}
