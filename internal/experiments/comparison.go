package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/baselines"
	"repro/internal/datasets"
	"repro/internal/ldp"
	"repro/internal/parallel"
	"repro/internal/query"
)

// Row is one row of a comparison table: a dataset under a layout, with
// every column's per-class MRE, STPT first.
type Row struct {
	Dataset string
	Layout  string
	Results []AlgResult
}

// comparison declares one comparison table: STPT plus a fixed set of
// alternatives, scored over rows of (dataset, layout) that each share
// one dataset, truth and query draw. RunComparison, RunFig6Single and
// RunShard all run a table through runComparison, so a shard computes
// the serial sweep's cells under the serial sweep's keys.
type comparison struct {
	name   string // the experiment, and the root of every cell key
	single string // the experiment running one row of the table, if any
	title  string
	// Rows are specs × layouts, spec-major.
	specs   []datasets.Spec
	layouts []datasets.Layout
	// keyLayout puts the layout in cell keys ("fig6/CER/uniform/stpt/rep0");
	// single-layout tables key by dataset alone ("fig7/CER/stpt/rep0").
	keyLayout bool
	alts      []column                   // the columns after STPT's
	footer    func(w io.Writer, row Row) // closes each panel; nil prints a blank line
}

// comparisons declares every comparison table, in stpt-bench's order.
func comparisons() []comparison {
	uniformNormal := []datasets.Layout{datasets.Uniform, datasets.Normal}
	return []comparison{{
		name: "fig6", single: "fig6-single",
		title: "Figure 6: STPT accuracy vs benchmarks (MRE %, lower is better)",
		specs: datasets.All(), layouts: uniformNormal, keyLayout: true,
		alts: baselineColumns(baselines.Registry()...),
		footer: func(w io.Writer, row Row) {
			fmt.Fprintf(w, "  STPT improvement over best baseline: random %+.0f%%, small %+.0f%%, large %+.0f%%\n\n",
				Improvement(row, 0), Improvement(row, 1), Improvement(row, 2))
		},
	}, {
		name:  "fig7",
		title: "Figure 7: WPO vs STPT, Los Angeles household distribution",
		specs: datasets.All(), layouts: []datasets.Layout{datasets.LosAngeles},
		alts:   baselineColumns(baselines.NewIdentity(), baselines.NewWPO()),
		footer: printWPORatio,
	}, {
		// The price of removing the trusted collector, at equal total ε.
		name:  "ldp",
		title: "Extension: central STPT vs local DP (no trusted collector), equal ε_tot",
		specs: []datasets.Spec{datasets.CER, datasets.TX}, layouts: []datasets.Layout{datasets.Uniform},
		alts: []column{ldpColumn(ldp.LocalLaplace{}), ldpColumn(ldp.LocalSampling{})},
	}, {
		name:  "extended",
		title: "Extension: STPT vs related-work algorithms beyond the paper's suite",
		specs: []datasets.Spec{datasets.CER}, layouts: uniformNormal, keyLayout: true,
		alts: baselineColumns(baselines.Extended()...),
	}}
}

// comparisonNamed finds a table's declaration by its experiment name.
func comparisonNamed(name string) (comparison, bool) {
	for _, c := range comparisons() {
		if c.name == name {
			return c, true
		}
	}
	return comparison{}, false
}

// tableRow is one (dataset, layout) row of a comparison table.
type tableRow struct {
	spec   datasets.Spec
	layout datasets.Layout
}

func (c comparison) rows() []tableRow {
	var rows []tableRow
	for _, spec := range c.specs {
		for _, layout := range c.layouts {
			rows = append(rows, tableRow{spec, layout})
		}
	}
	return rows
}

// columns lists the table's slots in order: STPT, then the alternatives.
func (c comparison) columns() []column {
	return append([]column{stptColumn("stpt", nil)}, c.alts...)
}

// prefix is a row's cell-key prefix; a cell key appends "/<column>/rep<N>".
func (c comparison) prefix(r tableRow) string {
	if c.keyLayout {
		return fmt.Sprintf("%s/%s/%s", c.name, r.spec.Name, r.layout)
	}
	return c.name + "/" + r.spec.Name
}

// rowCells generates a row's shared inputs and builds its slots in
// column order.
func (o Options) rowCells(c comparison, r tableRow) []algCells {
	in := o.newRow(r.spec, r.layout)
	var cells []algCells
	for _, col := range c.columns() {
		cells = append(cells, o.cells(in, col, c.prefix(r)+"/"+col.name))
	}
	return cells
}

// RunComparison regenerates the comparison table its experiment names:
// "fig6" (STPT against the benchmark suite on every dataset, under the
// Uniform and Normal layouts), "fig7" (WPO under the Los Angeles
// layout), "ldp" (the local-DP protocols of the paper's future-work
// section) or "extended" (related-work algorithms beyond the paper's
// suite, on CER). Every (row, column, rep) cell of the table runs on one
// worker pool and, when o.Checkpoint is set, resumes at the last
// completed cell.
func RunComparison(ctx context.Context, o Options, name string) ([]Row, error) {
	c, ok := comparisonNamed(name)
	if !ok {
		return nil, fmt.Errorf("experiments: %q is not a comparison table", name)
	}
	return o.runComparison(ctx, c, c.rows())
}

// RunFig6Single regenerates one dataset/layout panel of Figure 6. Cell
// keys match the full figure's, so a single-panel run and a full sweep
// share completed work.
func RunFig6Single(ctx context.Context, o Options, spec datasets.Spec, layout datasets.Layout) (Row, error) {
	c, _ := comparisonNamed("fig6")
	rows, err := o.runComparison(ctx, c, []tableRow{{spec, layout}})
	if err != nil {
		return Row{}, err
	}
	return rows[0], nil
}

// runComparison flattens every cell of the rows onto one worker pool.
// Row inputs are deterministic in (spec, layout, seed), so they are
// generated on the pool too.
func (o Options) runComparison(ctx context.Context, c comparison, rows []tableRow) ([]Row, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rowCells := make([][]algCells, len(rows))
	parallel.ForEach(o.Workers, len(rows), func(i int) {
		rowCells[i] = o.rowCells(c, rows[i])
	})
	var all []algCells
	for _, cells := range rowCells {
		all = append(all, cells...)
	}
	results, err := o.runCells(ctx, all)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.name, err)
	}
	perRow := len(results) / len(rows)
	out := make([]Row, len(rows))
	for i, r := range rows {
		out[i] = Row{Dataset: r.spec.Name, Layout: r.layout.String(), Results: results[i*perRow : (i+1)*perRow]}
	}
	return out, nil
}

// PrintComparison renders rows of the named table (RunFig6Single's row
// prints as "fig6") like the paper's panels: one per row, each closed by
// the table's footer. An unknown name is a programming error and panics.
func PrintComparison(w io.Writer, name string, rows []Row) {
	c, ok := comparisonNamed(name)
	if !ok {
		panic(fmt.Sprintf("experiments: %q is not a comparison table", name))
	}
	fmt.Fprintf(w, "=== %s ===\n", c.title)
	for _, row := range rows {
		printMRETable(w, fmt.Sprintf("[%s / %s layout]", row.Dataset, row.Layout), row.Results)
		if c.footer == nil {
			fmt.Fprintln(w)
			continue
		}
		c.footer(w, row)
	}
}

// Improvement computes STPT's percentage improvement over the best
// baseline for a class index (0 random, 1 small, 2 large) — the headline
// number of Section 5.2: 100*(best baseline - stpt)/best baseline.
func Improvement(row Row, classIdx int) float64 {
	var stptV float64
	best := -1.0
	for _, res := range row.Results {
		v := valueByIdx(res, classIdx)
		if res.Name == "stpt" {
			stptV = v
			continue
		}
		if best < 0 || v < best {
			best = v
		}
	}
	if best <= 0 {
		return 0
	}
	return 100 * (best - stptV) / best
}

func valueByIdx(r AlgResult, idx int) float64 {
	classes := query.Classes()
	if idx < 0 || idx >= len(classes) {
		idx = 0
	}
	return r.MRE[classes[idx]]
}

// printWPORatio closes a Figure 7 panel with the paper's takeaway: WPO
// trailing STPT by more than an order of magnitude.
func printWPORatio(w io.Writer, row Row) {
	var stpt, wpo float64
	for _, r := range row.Results {
		switch r.Name {
		case "stpt":
			stpt = r.MRE[0]
		case "wpo":
			wpo = r.MRE[0]
		}
	}
	if stpt > 0 {
		fmt.Fprintf(w, "  WPO/STPT random-query MRE ratio: %.1fx\n\n", wpo/stpt)
	}
}
