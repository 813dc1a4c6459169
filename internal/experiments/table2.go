package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/datasets"
	"repro/internal/parallel"
)

// Table2Row pairs a spec's published statistics with the measured
// statistics of the synthetic generator calibrated to it.
type Table2Row struct {
	Spec     datasets.Spec
	Measured datasets.Stats
}

// RunTable2 regenerates Table 2: per-dataset household counts and hourly
// consumption statistics, measured over one generated week. Each dataset
// is one checkpoint cell (keyed "table2/<dataset>") and one worker-pool
// task. The only error sources are the context and checkpoint I/O.
func RunTable2(ctx context.Context, o Options) ([]Table2Row, error) {
	specs := datasets.All()
	rows := make([]Table2Row, len(specs))
	err := parallel.Do(ctx, o.Workers, len(specs), func(i int) error {
		spec := specs[i]
		key := "table2/" + spec.Name
		var st datasets.Stats
		if !o.Checkpoint.Lookup(key, &st) {
			d := spec.Generate(datasets.Uniform, o.Cx, o.Cy, 7*24, o.Seed)
			st = datasets.Summarize(d)
			if err := o.Checkpoint.Record(key, st); err != nil {
				return err
			}
		}
		rows[i] = Table2Row{Spec: spec, Measured: st}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// PrintTable2 renders paper-vs-measured columns.
func PrintTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintln(w, "=== Table 2: electricity consumption data summary (paper → measured) ===")
	fmt.Fprintf(w, "  %-6s %22s %22s %22s %10s\n", "set", "households", "mean kWh", "std kWh", "max kWh")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-6s %10d → %-9d %10.2f → %-9.2f %10.2f → %-9.2f %10.2f\n",
			r.Spec.Name,
			r.Spec.Households, r.Measured.Households,
			r.Spec.MeanKWh, r.Measured.Mean,
			r.Spec.StdKWh, r.Measured.Std,
			r.Measured.Max)
	}
}

// Fig9Row is one dataset's weekday totals (Figure 9).
type Fig9Row struct {
	Dataset string
	Totals  [7]float64
}

// RunFig9 regenerates Figure 9: total consumption per weekday over two
// generated weeks. Datasets are independent and seeded, so they are
// generated on the worker pool; each task writes its own row slot.
func RunFig9(o Options) []Fig9Row {
	specs := datasets.All()
	rows := make([]Fig9Row, len(specs))
	parallel.ForEach(o.Workers, len(specs), func(i int) {
		d := specs[i].Generate(datasets.Uniform, o.Cx, o.Cy, 14*24, o.Seed)
		rows[i] = Fig9Row{Dataset: specs[i].Name, Totals: datasets.WeekdayTotals(d)}
	})
	return rows
}

// PrintFig9 renders weekday totals, normalised so Monday = 100.
func PrintFig9(w io.Writer, rows []Fig9Row) {
	fmt.Fprintln(w, "=== Figure 9: total weekly consumption per weekday (Mon=100) ===")
	days := []string{"Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"}
	fmt.Fprintf(w, "  %-6s", "set")
	for _, d := range days {
		fmt.Fprintf(w, " %8s", d)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-6s", r.Dataset)
		base := r.Totals[0]
		for _, v := range r.Totals {
			fmt.Fprintf(w, " %8.1f", 100*v/base)
		}
		fmt.Fprintln(w)
	}
}
