package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/baselines"
	"repro/internal/datasets"
	"repro/internal/journal"
	"repro/internal/query"
	"repro/internal/resilience"
)

func microSpec(exp, dataset, layout string) SweepSpec {
	return NewSweepSpec(exp, dataset, layout, micro())
}

// Options reconstructs the experiment options the spec froze. Workers,
// Checkpoint and Retry stay zero.
func (s SweepSpec) Options() Options {
	return Options{
		Cx: s.Cx, Cy: s.Cy, TTrain: s.TTrain, Horizon: s.Horizon,
		Depth: s.Depth, WindowSize: s.WindowSize, QuantLevels: s.QuantLevels,
		EmbedDim: s.EmbedDim, Hidden: s.Hidden, Epochs: s.Epochs,
		EpsPattern: s.EpsPattern, EpsSanitize: s.EpsSanitize,
		Queries: s.Queries, Reps: s.Reps, Seed: s.Seed, Households: s.Households,
	}
}

// NewCellRunner runs the spec's cells under spec.Options() alone: one
// serial pipeline per cell, no retry.
func NewCellRunner(spec SweepSpec) (*CellRunner, error) {
	return newCellRunner(spec, spec.Options())
}

func TestWorkListCanonicalOrderAndShape(t *testing.T) {
	o := micro()
	o.Reps = 2
	spec := NewSweepSpec("fig6", "", "", o)
	keys, err := spec.WorkList()
	if err != nil {
		t.Fatal(err)
	}
	// 4 datasets x 2 layouts x (stpt + registry) algs x 2 reps.
	perRow := 1 + len(baselines.Registry())
	if want := 4 * 2 * perRow * 2; len(keys) != want {
		t.Fatalf("len(keys) = %d, want %d", len(keys), want)
	}
	if keys[0] != "fig6/CER/uniform/stpt/rep0" || keys[1] != "fig6/CER/uniform/stpt/rep1" {
		t.Fatalf("canonical order broken: %v", keys[:2])
	}
	seen := map[string]bool{}
	for _, k := range keys {
		if seen[k] {
			t.Fatalf("duplicate key %s", k)
		}
		seen[k] = true
		if _, _, _, err := SplitCellKey(k); err != nil {
			t.Fatalf("enumerated key does not parse: %v", err)
		}
	}
}

func TestWorkListRejectsNonDistributable(t *testing.T) {
	for _, exp := range []string{"fig8c", "table2", "fig9", "ablations", "all", ""} {
		if _, err := NewSweepSpec(exp, "", "", micro()).WorkList(); err == nil {
			t.Fatalf("%q: expected a not-distributable error", exp)
		}
	}
	if _, err := NewSweepSpec("fig6-single", "NOPE", "uniform", micro()).WorkList(); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if _, err := NewSweepSpec("fig6-single", "CER", "sideways", micro()).WorkList(); err == nil {
		t.Fatal("unknown layout accepted")
	}
}

func TestSplitCellKey(t *testing.T) {
	prefix, alg, rep, err := SplitCellKey("fig6/CER/uniform/stpt/rep3")
	if err != nil || prefix != "fig6/CER/uniform" || alg != "stpt" || rep != 3 {
		t.Fatalf("got (%q, %q, %d, %v)", prefix, alg, rep, err)
	}
	for _, bad := range []string{"", "rep3", "stpt/rep3", "fig6/CER/stpt/repX", "fig6/CER/stpt/3", "fig6/CER/stpt/rep-1"} {
		if _, _, _, err := SplitCellKey(bad); err == nil {
			t.Fatalf("%q parsed", bad)
		}
	}
}

// TestExecuteMatchesSerialCheckpointCells is the distribution soundness
// proof at package level, for every distributable table: the serial
// checkpointed sweep records exactly the work list's keys, for every
// cell the CellRunner's portable value is byte-identical to what the
// serial sweep records under the same key, and a journal assembled
// purely from Execute outputs drives the in-process reduction to the
// exact serial tables.
func TestExecuteMatchesSerialCheckpointCells(t *testing.T) {
	for _, tc := range []struct {
		name, exp, dataset, layout string
	}{
		{"fig6-single-CA-uniform", "fig6-single", "CA", "uniform"},
		{"fig6-single-CER-losangeles", "fig6-single", "CER", "losangeles"},
		{"fig7", "fig7", "", ""},
		{"ldp", "ldp", "", ""},
		{"extended", "extended", "", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := micro()
			spec := microSpec(tc.exp, tc.dataset, tc.layout)
			run := func(o Options) ([]Row, error) {
				if tc.exp != "fig6-single" {
					return RunComparison(context.Background(), o, tc.exp)
				}
				ds, err := datasets.ByName(tc.dataset)
				if err != nil {
					return nil, err
				}
				layout, err := datasets.ParseLayout(tc.layout)
				if err != nil {
					return nil, err
				}
				row, err := RunFig6Single(context.Background(), o, ds, layout)
				return []Row{row}, err
			}

			// Serial golden run with a real checkpoint file.
			path := filepath.Join(t.TempDir(), "serial.json")
			ck, err := journal.OpenCheckpoint(path)
			if err != nil {
				t.Fatal(err)
			}
			serial := o
			serial.Checkpoint = ck
			want, err := run(serial)
			if err != nil {
				t.Fatal(err)
			}

			keys, err := spec.WorkList()
			if err != nil {
				t.Fatal(err)
			}
			sorted := append([]string(nil), keys...)
			sort.Strings(sorted)
			if got := ck.Keys(); !reflect.DeepEqual(got, sorted) {
				t.Fatalf("serial checkpoint recorded %v, work list is %v", got, sorted)
			}

			runner, err := NewCellRunner(spec)
			if err != nil {
				t.Fatal(err)
			}
			assembled := journal.NewMemoryCheckpoint()
			for _, key := range keys {
				raw, err := runner.Execute(context.Background(), key)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				if err := ValidateCellValue(raw); err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				var serialCell mreCell
				if !ck.Lookup(key, &serialCell) {
					t.Fatalf("serial checkpoint is missing %s", key)
				}
				serialRaw, err := json.Marshal(serialCell)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(raw, serialRaw) {
					t.Fatalf("%s: Execute value %s != serial checkpoint cell %s", key, raw, serialRaw)
				}
				if err := assembled.Record(key, json.RawMessage(raw)); err != nil {
					t.Fatal(err)
				}
			}

			// Reduction from the assembled journal reproduces the serial tables.
			reduced := o
			reduced.Checkpoint = assembled
			got, err := run(reduced)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("reduced %d rows, serial %d", len(got), len(want))
			}
			for i := range want {
				sameResults(t, got[i], want[i])
			}
		})
	}
}

// TestBindCheckpoint: a checkpoint is bound to the output-affecting
// options of the run that created it. A run under different options is
// refused (it would be served stale cells), a run differing only in
// process-local knobs or the rep count resumes, and a non-empty file
// with no options record cannot be matched to any options.
func TestBindCheckpoint(t *testing.T) {
	o := micro()
	path := filepath.Join(t.TempDir(), "sweep.json")
	ck, err := journal.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := BindCheckpoint(ck, o); err != nil || n != 0 {
		t.Fatalf("fresh checkpoint: n = %d, err = %v", n, err)
	}
	cell := encodeMRE(map[query.Class]float64{query.Random: 1})
	if err := ck.Record("fig6/CA/uniform/stpt/rep0", cell); err != nil {
		t.Fatal(err)
	}
	ck.Close()
	ck, err = journal.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !ck.Lookup(optionsKey, nil) {
		t.Fatal("fresh checkpoint did not record its options")
	}

	for name, mut := range map[string]func(*Options){
		"seed":       func(o *Options) { o.Seed++ },
		"cx":         func(o *Options) { o.Cx *= 2 },
		"households": func(o *Options) { o.Households++ },
	} {
		other := o
		mut(&other)
		_, err := BindCheckpoint(ck, other)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf(`"seed":%d`, o.Seed)) ||
			!strings.Contains(err.Error(), fmt.Sprintf(`"seed":%d`, other.Seed)) {
			t.Fatalf("different %s: err = %v, want a mismatch naming both option sets", name, err)
		}
	}
	for name, mut := range map[string]func(*Options){
		"workers": func(o *Options) { o.Workers = 4 },
		"reps":    func(o *Options) { o.Reps = 3 },
		"retry":   func(o *Options) { o.Retry = resilience.DefaultPolicy() },
	} {
		other := o
		mut(&other)
		n, err := BindCheckpoint(ck, other)
		if err != nil {
			t.Fatalf("different %s: %v", name, err)
		}
		if n != 1 {
			t.Fatalf("different %s: %d completed cells, want 1 (reserved entries excluded)", name, n)
		}
	}

	legacy := journal.NewMemoryCheckpoint()
	if err := legacy.Record("fig6/CA/uniform/stpt/rep0", cell); err != nil {
		t.Fatal(err)
	}
	if _, err := BindCheckpoint(legacy, o); err == nil {
		t.Fatal("a non-empty checkpoint without an options record was accepted")
	}
	if legacy.Lookup(optionsKey, nil) {
		t.Fatal("refusing a legacy checkpoint recorded options into it")
	}
}

func TestExecuteRejectsForeignAndMalformedKeys(t *testing.T) {
	runner, err := NewCellRunner(microSpec("fig6-single", "CA", "uniform"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, bad := range []string{
		"fig6/CER/uniform/stpt/rep0", // different row
		"fig6/CA/uniform/nosuch/rep0",
		"fig6/CA/uniform/stpt/rep99", // beyond Reps
		"garbage",
	} {
		if _, err := runner.Execute(ctx, bad); err == nil {
			t.Fatalf("%q executed", bad)
		}
	}
}

// ValidateCellValue checks that a cell value is a well-formed checkpoint
// cell the reduction can fold into tables: valid JSON, known query
// classes, at least one class.
func ValidateCellValue(raw []byte) error {
	var cell mreCell
	if err := json.Unmarshal(raw, &cell); err != nil {
		return fmt.Errorf("experiments: cell value is not valid JSON: %w", err)
	}
	if len(cell.MRE) == 0 {
		return fmt.Errorf("experiments: cell value has no MRE classes")
	}
	if _, ok := cell.decode(); !ok {
		return fmt.Errorf("experiments: cell value names unknown query classes")
	}
	return nil
}

func TestValidateCellValue(t *testing.T) {
	if err := ValidateCellValue([]byte(`{"mre":{"random":1.5,"small":2.0,"large":0.25}}`)); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		`{`, `{"mre":{}}`, `{"mre":{"martian":1.0}}`, `null`, `"hi"`,
	} {
		if err := ValidateCellValue([]byte(bad)); err == nil {
			t.Fatalf("%q validated", bad)
		}
	}
}
