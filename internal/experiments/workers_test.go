package experiments

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/datasets"
	"repro/internal/resilience"
)

// Sweep parallelism lives at the cell level — every cell runs the serial
// core pipeline — so the averaged tables must be bit-identical for every
// worker count, not merely statistically equivalent.
func TestFig6RowWorkersBitIdentical(t *testing.T) {
	o := micro()
	base, err := RunFig6Single(context.Background(), o, datasets.CA, datasets.Uniform)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5} {
		ow := o
		ow.Workers = workers
		got, err := RunFig6Single(context.Background(), ow, datasets.CA, datasets.Uniform)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sameResults(t, got, base)
	}
}

func TestFig8SweepWorkersBitIdentical(t *testing.T) {
	o := micro()
	base, err := RunFig8Quantization(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	ow := o
	ow.Workers = 4
	got, err := RunFig8Quantization(context.Background(), ow)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(base) {
		t.Fatalf("points = %d, want %d", len(got), len(base))
	}
	for i := range got {
		if got[i].Label != base[i].Label {
			t.Fatalf("point %d label %s != %s", i, got[i].Label, base[i].Label)
		}
		for c, v := range base[i].MRE {
			if got[i].MRE[c] != v {
				t.Fatalf("point %s class %v: %v != %v", got[i].Label, c, got[i].MRE[c], v)
			}
		}
	}
}

func TestTable2AndFig9Workers(t *testing.T) {
	o := micro()
	baseT, err := RunTable2(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	baseF := RunFig9(o)
	ow := o
	ow.Workers = 3
	gotT, err := RunTable2(context.Background(), ow)
	if err != nil {
		t.Fatal(err)
	}
	gotF := RunFig9(ow)
	if len(gotT) != len(baseT) || len(gotF) != len(baseF) {
		t.Fatalf("row counts differ: table2 %d/%d fig9 %d/%d", len(gotT), len(baseT), len(gotF), len(baseF))
	}
	for i := range baseT {
		if gotT[i] != baseT[i] {
			t.Fatalf("table2 row %d differs at workers=3", i)
		}
	}
	for i := range baseF {
		if gotF[i] != baseF[i] {
			t.Fatalf("fig9 row %d differs at workers=3", i)
		}
	}
}

// A checkpoint written by a parallel sweep must be interchangeable with a
// serial one: cells are keyed by stable identity and cell values don't
// depend on the worker count, so a parallel run resumes a serial file (and
// vice versa) without recomputation drift.
func TestParallelSweepCheckpointInterchangeable(t *testing.T) {
	o := micro()
	want, err := RunFig6Single(context.Background(), o, datasets.CA, datasets.Uniform)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "sweep.json")
	ck, err := resilience.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	op := o
	op.Workers = 4
	op.Checkpoint = ck
	got, err := RunFig6Single(context.Background(), op, datasets.CA, datasets.Uniform)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, got, want)

	// Resume the parallel run's file serially: every cell must be cached.
	ck2, err := resilience.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck2.Len() != ck.Len() {
		t.Fatalf("reopened checkpoint has %d cells, want %d", ck2.Len(), ck.Len())
	}
	os := o
	os.Checkpoint = ck2
	var released []string
	count := resilience.NewInjector().On(resilience.FaultRelease, func(_ context.Context, payload any) error {
		released = append(released, fmt.Sprint(payload))
		return nil
	})
	resumed, err := RunFig6Single(resilience.WithInjector(context.Background(), count), os, datasets.CA, datasets.Uniform)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, resumed, want)
	if len(released) != 0 {
		t.Fatalf("serial resume of a complete parallel checkpoint recomputed %v", released)
	}
}
