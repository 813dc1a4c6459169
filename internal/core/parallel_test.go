package core

import (
	"context"
	"testing"

	"repro/internal/grid"
)

// QuantizeModeWorkers must reproduce the serial partitioning exactly —
// levels, cell order within each partition, and pillar sensitivities —
// for every worker count.
func TestQuantizeWorkersBitIdentical(t *testing.T) {
	d := testDataset(8, 8, 60, 24, 9)
	pattern := grid.FromDataset(d, 12, d.T())
	for _, mode := range []QuantMode{QuantLog, QuantLinear} {
		serial := QuantizeModeWorkers(pattern, 6, mode, 1)
		for _, workers := range []int{2, 3, 8, 100} {
			got := QuantizeModeWorkers(pattern, 6, mode, workers)
			if len(got) != len(serial) {
				t.Fatalf("mode=%d workers=%d: %d partitions, want %d", mode, workers, len(got), len(serial))
			}
			for i, p := range got {
				s := serial[i]
				if p.Level != s.Level || p.PillarMax != s.PillarMax || len(p.Cells) != len(s.Cells) {
					t.Fatalf("mode=%d workers=%d: partition %d header differs", mode, workers, i)
				}
				for j, c := range p.Cells {
					if c != s.Cells[j] {
						t.Fatalf("mode=%d workers=%d: partition %d cell %d = %v, want %v", mode, workers, i, j, c, s.Cells[j])
					}
				}
			}
		}
	}
}

// A full run at Workers=0 and Workers=1 must be bit-identical (both take
// the serial code paths), and a run at Workers=N must be self-consistent
// across repetitions.
func TestRunWorkersDeterminism(t *testing.T) {
	d := testDataset(8, 8, 60, 24, 4)
	run := func(workers int) *Result {
		cfg := tinyConfig()
		cfg.Workers = workers
		res, err := RunContext(context.Background(), d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(0)
	serial := run(1)
	for i, v := range base.Sanitized.Data() {
		if serial.Sanitized.Data()[i] != v {
			t.Fatal("Workers=0 and Workers=1 releases differ")
		}
	}
	p4a := run(4)
	p4b := run(4)
	for i, v := range p4a.Sanitized.Data() {
		if p4b.Sanitized.Data()[i] != v {
			t.Fatal("Workers=4 is not deterministic across runs")
		}
	}
	// Sanity: the parallel release stays a valid DP release of the same
	// shape (training regroups float sums, so exact equality with serial
	// is not required).
	if p4a.Sanitized.Len() != base.Sanitized.Len() || p4a.Partitions <= 0 {
		t.Fatalf("parallel run shape: len %d partitions %d", p4a.Sanitized.Len(), p4a.Partitions)
	}
}

// The persistence model skips training and rollout randomness entirely, so
// its release must be bit-identical across ALL worker counts.
func TestRunWorkersPersistenceBitIdentical(t *testing.T) {
	d := testDataset(8, 8, 60, 24, 5)
	run := func(workers int) *Result {
		cfg := tinyConfig()
		cfg.Model = ModelPersistence
		cfg.Workers = workers
		res, err := RunContext(context.Background(), d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(1)
	for _, workers := range []int{2, 4, 7} {
		got := run(workers)
		for i, v := range base.Sanitized.Data() {
			if got.Sanitized.Data()[i] != v {
				t.Fatalf("persistence release differs at workers=%d", workers)
			}
		}
	}
}
