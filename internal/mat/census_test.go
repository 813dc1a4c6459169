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
// multiply-adds the vector kernels take on this CPU; then the same for the
// activations' elements. Run it with -v to see the tables.
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
	counts, activations := stop()
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
	// three context features, two workers, batches of 32), run as block
	// products: the GRU's 16x16 gate products over a training shard's 16
	// samples and over a grid row's 32 cells, their weight gradients over
	// a shard's 16·6 (sample, timestep) rows, the embedding (16x4: one
	// value plus the context) over a shard's 96 rows, and per sequence the
	// attention's 6x16 A·V and its backward.
	for _, c := range []mat.CensusCall{
		{Kernel: "Mul", Rows: 16, Cols: 16, Inner: 16},
		{Kernel: "Mul", Rows: 32, Cols: 16, Inner: 16},
		{Kernel: "MulAT", Rows: 16, Cols: 16, Inner: 96},
		{Kernel: "Mul", Rows: 96, Cols: 16, Inner: 4},
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

	// Every GRU gate and the tanh embedding run over a block of rows of
	// 16, and the softmax over a block of 6x6 score matrices, so every
	// activation's length is a multiple of 16 or 36, and on the vector
	// path every element runs in the vector kernels.
	vectorPerCall := func(c mat.CensusCall) (int, bool) {
		switch {
		case (c.Kernel == "SigmoidTo" || c.Kernel == "TanhTo") && c.Cols%16 == 0:
			return c.Cols, true
		case c.Kernel == "ExpTo" && c.Cols%36 == 0:
			return c.Cols, true
		}
		return 0, false
	}
	var shapes []mat.CensusCall
	var elems, vecElems int
	for c, a := range activations {
		shapes = append(shapes, c)
		elems += a.Elements
		vecElems += a.Vector
	}
	sort.Slice(shapes, func(i, j int) bool { return activations[shapes[i]].Elements > activations[shapes[j]].Elements })
	b.Reset()
	fmt.Fprintf(&b, "vector activations: %v\n%-10s %6s %10s %12s %7s\n", mat.VectorActivations,
		"kernel", "length", "calls", "elements", "vector")
	for _, c := range shapes {
		a := activations[c]
		fmt.Fprintf(&b, "%-10s %6d %10d %12d %6.1f%%\n", c.Kernel, c.Cols, a.Calls, a.Elements,
			100*float64(a.Vector)/float64(max(a.Elements, 1)))
	}
	fmt.Fprintf(&b, "total: %d elements, %.1f%% vector; %d (%.1f%%) run in Go",
		elems, 100*float64(vecElems)/float64(max(elems, 1)), elems-vecElems, 100*float64(elems-vecElems)/float64(max(elems, 1)))
	t.Log("\n" + b.String())
	for _, c := range shapes {
		a := activations[c]
		perCall, ok := vectorPerCall(c)
		switch {
		case !ok:
			t.Errorf("%s at length %d: not a bench-scale activation shape", c.Kernel, c.Cols)
		case !mat.VectorActivations && a.Vector != 0:
			t.Errorf("%s at length %d: %d vector elements with the activation kernels off", c.Kernel, c.Cols, a.Vector)
		case mat.VectorActivations && a.Vector != perCall*a.Calls:
			t.Errorf("%s at length %d: %d of %d elements vector, want %d", c.Kernel, c.Cols, a.Vector, a.Elements, perCall*a.Calls)
		}
	}
	for _, c := range []mat.CensusCall{
		{Kernel: "SigmoidTo", Rows: 1, Cols: 256, Inner: 1}, // a training shard's GRU gate
		{Kernel: "SigmoidTo", Rows: 1, Cols: 512, Inner: 1}, // a grid row's GRU gate
		{Kernel: "TanhTo", Rows: 1, Cols: 1536, Inner: 1},   // a training shard's embedding
		{Kernel: "ExpTo", Rows: 1, Cols: 576, Inner: 1},     // a training shard's softmax
	} {
		if activations[c] == nil {
			t.Errorf("no %s call at length %d", c.Kernel, c.Cols)
		}
	}
}
