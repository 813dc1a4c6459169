package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/datasets"
	"repro/internal/journal"
	"repro/internal/resilience"
)

// sameResults compares algorithm names and per-class MREs exactly
// (Seconds is wall-clock and excluded).
func sameResults(t *testing.T, got, want Row) {
	t.Helper()
	if got.Dataset != want.Dataset || got.Layout != want.Layout {
		t.Fatalf("row header %s/%s != %s/%s", got.Dataset, got.Layout, want.Dataset, want.Layout)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("results = %d, want %d", len(got.Results), len(want.Results))
	}
	for i := range got.Results {
		g, w := got.Results[i], want.Results[i]
		if g.Name != w.Name {
			t.Fatalf("result %d: %s != %s", i, g.Name, w.Name)
		}
		if len(g.MRE) != len(w.MRE) {
			t.Fatalf("%s: MRE classes %d != %d", g.Name, len(g.MRE), len(w.MRE))
		}
		for c, wv := range w.MRE {
			if gv := g.MRE[c]; gv != wv || math.IsNaN(gv) {
				t.Fatalf("%s %v: %v != %v", g.Name, c, gv, wv)
			}
		}
	}
}

// TestCheckpointResumeEquivalence is the acceptance scenario: a sweep
// killed mid-way and restarted from its checkpoint file skips every
// completed cell and produces exactly the uninterrupted result.
func TestCheckpointResumeEquivalence(t *testing.T) {
	o := micro()
	spec, layout := datasets.CA, datasets.Uniform

	// Reference: uninterrupted, no checkpoint.
	want, err := RunFig6Single(context.Background(), o, spec, layout)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "sweep.json")
	ck, err := journal.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	o.Checkpoint = ck

	// First run: "crash" when wavelet-10 releases. Everything before it
	// (stpt, identity, fast, fourier-10, fourier-20) is checkpointed.
	boom := errors.New("simulated crash")
	crash := resilience.NewInjector().On(resilience.FaultRelease, func(_ context.Context, payload any) error {
		if payload == "wavelet-10" {
			return boom
		}
		return nil
	})
	_, err = RunFig6Single(resilience.WithInjector(context.Background(), crash), o, spec, layout)
	if !errors.Is(err, boom) {
		t.Fatalf("interrupted run: err = %v, want simulated crash", err)
	}
	if ck.Len() == 0 {
		t.Fatal("no cells checkpointed before the crash")
	}

	// Restart: the crashed process's file is closed, and the file is
	// reopened as a fresh process would.
	ck.Close()
	ck2, err := journal.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck2.Len() != ck.Len() {
		t.Fatalf("reopened checkpoint has %d cells, want %d", ck2.Len(), ck.Len())
	}
	o.Checkpoint = ck2

	var released []string
	count := resilience.NewInjector().On(resilience.FaultRelease, func(_ context.Context, payload any) error {
		released = append(released, fmt.Sprint(payload))
		return nil
	})
	got, err := RunFig6Single(resilience.WithInjector(context.Background(), count), o, spec, layout)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, got, want)

	// Completed cells must not be re-released on resume.
	for _, name := range released {
		switch name {
		case "identity", "fast", "fourier-10", "fourier-20":
			t.Fatalf("resume re-released checkpointed algorithm %s", name)
		}
	}
	if len(released) == 0 {
		t.Fatal("resume released nothing; crash point was never reached")
	}
}

// TestSweepCancellation verifies a cancelled context stops a sweep at the
// next cell boundary and surfaces context.Canceled.
func TestSweepCancellation(t *testing.T) {
	o := micro()

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunComparison(pre, o, "fig6"); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v", err)
	}

	// Mid-run: cancel as soon as the first baseline release fires; the
	// sweep must stop without finishing the remaining algorithms.
	ctx, cancelMid := context.WithCancel(context.Background())
	defer cancelMid()
	in := resilience.NewInjector().On(resilience.FaultRelease, func(context.Context, any) error {
		cancelMid()
		return nil
	})
	_, err := RunFig6Single(resilience.WithInjector(ctx, in), o, datasets.CA, datasets.Uniform)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: err = %v", err)
	}
}

// TestCheckpointCrashBeforeWrite proves the crash-before-record window is
// safe: a cell whose write is interrupted is simply recomputed on resume.
func TestCheckpointCrashBeforeWrite(t *testing.T) {
	o := micro()
	path := filepath.Join(t.TempDir(), "sweep.json")
	ck, err := journal.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	o.Checkpoint = ck

	boom := errors.New("power loss")
	key := "fig6/CA/uniform/identity/rep0"
	in := resilience.NewInjector().On(resilience.FaultCheckpoint, func(_ context.Context, payload any) error {
		if payload == key {
			return boom
		}
		return nil
	})
	_, err = RunFig6Single(resilience.WithInjector(context.Background(), in), o, datasets.CA, datasets.Uniform)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want power loss", err)
	}
	ck.Close()
	ck2, err := journal.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	var cell mreCell
	if ck2.Lookup(key, &cell) {
		t.Fatal("interrupted cell was recorded")
	}
	// The cell before the crash (stpt/rep0) must have survived.
	if !ck2.Lookup("fig6/CA/uniform/stpt/rep0", &cell) {
		t.Fatal("cell completed before the crash is missing")
	}

	o.Checkpoint = ck2
	row, err := RunFig6Single(context.Background(), o, datasets.CA, datasets.Uniform)
	if err != nil {
		t.Fatal(err)
	}
	if len(row.Results) != 8 {
		t.Fatalf("resumed results = %d", len(row.Results))
	}
}
