package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/query"
)

// micro returns the smallest scale that exercises every experiment path.
func micro() Options {
	return Options{
		Cx: 8, Cy: 8, TTrain: 12, Horizon: 12,
		Depth: 2, WindowSize: 3, QuantLevels: 4,
		EmbedDim: 4, Hidden: 4, Epochs: 2,
		EpsPattern: 10, EpsSanitize: 20,
		Queries: 30, Reps: 1, Seed: 1, Households: 60,
	}
}

func TestRunTable2AndPrint(t *testing.T) {
	rows, err := RunTable2(context.Background(), micro())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Measured.Households != r.Spec.Households && r.Measured.Households != micro().Households {
			// Generator at this scale keeps spec households (no override in RunTable2).
			t.Fatalf("%s: households %d", r.Spec.Name, r.Measured.Households)
		}
		if r.Measured.Mean <= 0 || r.Measured.Max > r.Spec.MaxKWh+1e-9 {
			t.Fatalf("%s: stats %+v", r.Spec.Name, r.Measured)
		}
	}
	var buf bytes.Buffer
	PrintTable2(&buf, rows)
	if !strings.Contains(buf.String(), "CER") {
		t.Fatal("print missing CER row")
	}
}

func TestRunFig9AndPrint(t *testing.T) {
	rows := RunFig9(micro())
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		weekday := (r.Totals[0] + r.Totals[1] + r.Totals[2] + r.Totals[3] + r.Totals[4]) / 5
		weekend := (r.Totals[5] + r.Totals[6]) / 2
		if weekend <= weekday {
			t.Fatalf("%s: weekend %v <= weekday %v", r.Dataset, weekend, weekday)
		}
	}
	var buf bytes.Buffer
	PrintFig9(&buf, rows)
	if !strings.Contains(buf.String(), "Mon") {
		t.Fatal("print missing weekday header")
	}
}

func TestRunFig6SinglePanel(t *testing.T) {
	o := micro()
	row, err := RunFig6Single(context.Background(), o, datasets.CA, datasets.Uniform)
	if err != nil {
		t.Fatal(err)
	}
	if row.Dataset != "CA" || row.Layout != "uniform" {
		t.Fatalf("row header %s/%s", row.Dataset, row.Layout)
	}
	// STPT + 7 registry baselines.
	if len(row.Results) != 8 {
		t.Fatalf("results = %d", len(row.Results))
	}
	for _, r := range row.Results {
		for _, c := range query.Classes() {
			if r.MRE[c] < 0 {
				t.Fatalf("%s %v: MRE %v", r.Name, c, r.MRE[c])
			}
		}
	}
	var buf bytes.Buffer
	PrintComparison(&buf, "fig6", []Row{row})
	if !strings.Contains(buf.String(), "stpt") || !strings.Contains(buf.String(), "improvement") {
		t.Fatalf("print output incomplete:\n%s", buf.String())
	}
}

func TestRunFig8Sweeps(t *testing.T) {
	o := micro()
	t.Run("pattern-budget", func(t *testing.T) {
		pts, err := RunFig8PatternBudget(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != 5 {
			t.Fatalf("points = %d", len(pts))
		}
		for _, p := range pts {
			if p.MAE <= 0 || p.RMSE < p.MAE {
				t.Fatalf("point %+v", p)
			}
		}
		var buf bytes.Buffer
		PrintSweepPattern(&buf, "8ab", pts)
		if !strings.Contains(buf.String(), "MAE") {
			t.Fatal("print missing header")
		}
	})
	t.Run("quantization", func(t *testing.T) {
		pts, err := RunFig8Quantization(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != 6 {
			t.Fatalf("points = %d", len(pts))
		}
		var buf bytes.Buffer
		PrintSweepMRE(&buf, "8c", pts)
		if !strings.Contains(buf.String(), "k=2") {
			t.Fatal("print missing labels")
		}
	})
	t.Run("tree-depth", func(t *testing.T) {
		pts, err := RunFig8TreeDepth(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) == 0 {
			t.Fatal("no depth points")
		}
	})
	t.Run("budget-split", func(t *testing.T) {
		pts, err := RunFig8BudgetSplit(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != 7 {
			t.Fatalf("points = %d", len(pts))
		}
	})
	t.Run("total-budget", func(t *testing.T) {
		pts, err := RunFig8TotalBudget(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != 5 {
			t.Fatalf("points = %d", len(pts))
		}
	})
	t.Run("models", func(t *testing.T) {
		pts, err := RunFig8Models(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != 4 {
			t.Fatalf("points = %d", len(pts))
		}
	})
	t.Run("runtime", func(t *testing.T) {
		rows, err := RunFig8Runtime(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 9 { // stpt + 7 registry + wpo
			t.Fatalf("rows = %d", len(rows))
		}
		var buf bytes.Buffer
		PrintRuntimes(&buf, rows)
		if !strings.Contains(buf.String(), "seconds") {
			t.Fatal("print missing header")
		}
	})
}

func TestRunFig7(t *testing.T) {
	o := micro()
	rows, err := RunComparison(context.Background(), o, "fig7")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	var buf bytes.Buffer
	PrintComparison(&buf, "fig7", rows)
	if !strings.Contains(buf.String(), "wpo") {
		t.Fatal("print missing wpo")
	}
}

func TestRunAblations(t *testing.T) {
	o := micro()
	rows, err := RunAblations(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	var buf bytes.Buffer
	PrintAblations(&buf, rows)
	for _, want := range []string{"flat-training", "uniform-budget", "no-partitions", "persistence"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("print missing %s", want)
		}
	}
}

func TestImprovementComputation(t *testing.T) {
	row := Row{Results: []AlgResult{
		{Name: "stpt", MRE: map[query.Class]float64{query.Random: 10}},
		{Name: "identity", MRE: map[query.Class]float64{query.Random: 40}},
		{Name: "fast", MRE: map[query.Class]float64{query.Random: 25}},
	}}
	got := Improvement(row, 0)
	if got != 60 { // best baseline 25 → (25-10)/25 = 60%
		t.Fatalf("Improvement = %v", got)
	}
}

func TestRunLDPExtension(t *testing.T) {
	rows, err := RunComparison(context.Background(), micro(), "ldp")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if len(r.Results) != 3 { // stpt + 2 local mechanisms
			t.Fatalf("%s: results = %d", r.Dataset, len(r.Results))
		}
	}
	var buf bytes.Buffer
	PrintComparison(&buf, "ldp", rows)
	if !strings.Contains(buf.String(), "ldp-laplace") {
		t.Fatal("print missing mechanism")
	}
}

func TestRunExtended(t *testing.T) {
	rows, err := RunComparison(context.Background(), micro(), "extended")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if len(r.Results) != 5 { // stpt + wpo + ar1 + agrid + htf
			t.Fatalf("%s: results = %d", r.Layout, len(r.Results))
		}
	}
	var buf bytes.Buffer
	PrintComparison(&buf, "extended", rows)
	if !strings.Contains(buf.String(), "htf") {
		t.Fatal("print missing htf")
	}
}
