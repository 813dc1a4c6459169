package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/dist"
	"repro/internal/experiments"
)

// coordinatorConfig is the -coordinator flag bundle.
type coordinatorConfig struct {
	Addr        string
	Experiment  string
	Dataset     string
	Layout      string
	TTL         time.Duration
	MaxAttempts int
	LocalAfter  time.Duration
	Checkpoint  string
}

// runCoordinator executes the distributed phase of a sweep: it serves
// the experiment's cells as leases to stpt-sweep workers and blocks
// until every cell is journaled into the -checkpoint file (or
// quarantined). If no worker has joined within LocalAfter, it steps
// aside and returns nil: the caller's ordinary -workers sweep runs the
// missing cells into the same journal. Either way the caller then
// reduces the tables bit-identically to a serial run.
func runCoordinator(ctx context.Context, opts experiments.Options, cfg coordinatorConfig) error {
	if cfg.Checkpoint == "" {
		return fmt.Errorf("-coordinator needs -checkpoint: the journal is the sweep's durable state (restart = resume)")
	}
	spec := experiments.NewSweepSpec(cfg.Experiment, cfg.Dataset, cfg.Layout, opts)
	keys, err := spec.WorkList()
	if err != nil {
		return err
	}
	rawSpec, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	c, err := dist.NewCoordinator(dist.Config{
		Experiment:  cfg.Experiment,
		Keys:        keys,
		Spec:        rawSpec,
		TTL:         cfg.TTL,
		MaxAttempts: cfg.MaxAttempts,
		Journal:     opts.Checkpoint,
		Validate:    func(_ string, value []byte) error { return experiments.ValidateCellValue(value) },
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "stpt-bench: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	srv, err := dist.Serve(ctx, c, cfg.Addr)
	if err != nil {
		return err
	}
	defer srv.Close()
	snap := c.Snapshot()
	fmt.Fprintf(os.Stderr, "stpt-bench: coordinating %s on %s: %d cells (%d already journaled); join workers with: stpt-sweep -join %s\n",
		cfg.Experiment, srv.Addr(), snap.Total, snap.Done, srv.Addr())

	// finish lingers briefly on success before the deferred srv.Close:
	// the worker that delivered the last cell polls for its next lease
	// immediately, and it should observe a clean "done" rather than a
	// vanished coordinator it would retry against.
	finish := func(err error) error {
		if err == nil && c.Joined() > 0 {
			fmt.Fprintf(os.Stderr, "stpt-bench: sweep complete; letting workers observe completion\n")
			time.Sleep(2 * time.Second)
		}
		return err
	}

	waitCtx, stopWait := context.WithCancel(ctx)
	defer stopWait()
	done := make(chan error, 1)
	go func() { done <- c.Wait(waitCtx) }()
	fallback := time.NewTimer(cfg.LocalAfter)
	defer fallback.Stop()
	select {
	case err := <-done:
		return finish(err)
	case <-fallback.C:
	}
	if c.Joined() == 0 {
		fmt.Fprintf(os.Stderr, "stpt-bench: no workers joined within %s; running the remaining cells in-process\n", cfg.LocalAfter)
		return nil
	}
	// Workers are (or were) on the sweep; leave the cells to them. A
	// worker crash only parks its cells until their leases expire and
	// another worker — possibly started much later — picks them up;
	// Ctrl-C still abandons cleanly with the journal intact.
	return finish(<-done)
}
