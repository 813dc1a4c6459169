package mat_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/experiments"
	"repro/internal/mat"
)

// TestKernelCensus counts the kernel calls of one STPT release at
// experiments.Bench() options (the perfbench release workload at seed 1)
// by kernel and shape, and reports which share of the calls and of the
// multiply-adds the vector kernels take on this CPU. Run it with -v to
// see the table.
func TestKernelCensus(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs a bench-scale release")
	}
	o := experiments.Bench()
	d := datasets.CA.GenerateDaily(datasets.Uniform, o.Cx, o.Cy, o.TTrain+o.Horizon, 1)
	cfg := o.STPTConfig(datasets.CA)
	cfg.Model = core.ModelAttentiveGRU
	cfg.Workers = 2
	cfg.Seed = 1

	stop := mat.StartCensus()
	_, err := core.RunContext(context.Background(), d, cfg)
	counts := stop()
	if err != nil {
		t.Fatal(err)
	}

	type row struct {
		c             mat.CensusCall
		calls         int
		macs, vecMACs int
	}
	var rows []row
	var calls, vecCalls, macs, vecMACs int
	for c, n := range counts {
		total, vec := c.Multiplies()
		rows = append(rows, row{c, n, n * total, n * vec})
		calls += n
		macs += n * total
		vecMACs += n * vec
		if vec > 0 {
			vecCalls += n
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].macs > rows[j].macs })
	var b strings.Builder
	fmt.Fprintf(&b, "vector kernels: %v\n%-10s %5s %5s %5s %10s %12s %7s\n", mat.VectorKernels,
		"kernel", "rows", "cols", "inner", "calls", "mult-adds", "vector")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %5d %5d %5d %10d %12d %6.1f%%\n", r.c.Kernel, r.c.Rows, r.c.Cols, r.c.Inner,
			r.calls, r.macs, 100*float64(r.vecMACs)/float64(max(r.macs, 1)))
	}
	fmt.Fprintf(&b, "total: %d calls (%.1f%% vector), %d multiply-adds (%.1f%% vector)",
		calls, 100*float64(vecCalls)/float64(calls), macs, 100*float64(vecMACs)/float64(macs))
	t.Log("\n" + b.String())

	// The model's shapes at bench scale (embed and hidden 16, window 6,
	// three context features): the GRU's 16x16 weights, the embedding
	// read as 16x4 (one value plus the context), the 1x16 head, and the
	// attention's 6x16 sequences and 6x6 scores.
	for _, c := range []mat.CensusCall{
		{Kernel: "MulVecTo", Rows: 16, Cols: 16, Inner: 1},
		{Kernel: "AddOuter", Rows: 16, Cols: 16, Inner: 1},
		{Kernel: "TMulVecTo", Rows: 16, Cols: 16, Inner: 1},
		{Kernel: "MulVecTo", Rows: 1, Cols: 16, Inner: 1},
		{Kernel: "Mul", Rows: 6, Cols: 16, Inner: 6},
		{Kernel: "MulAT", Rows: 6, Cols: 16, Inner: 6},
	} {
		if counts[c] == 0 {
			t.Errorf("no %s call at %dx%d (inner %d)", c.Kernel, c.Rows, c.Cols, c.Inner)
		}
	}
	if mat.VectorKernels && float64(vecMACs) < 0.9*float64(macs) {
		t.Errorf("vector kernels take %d of %d multiply-adds, want at least 90%%", vecMACs, macs)
	}
}
