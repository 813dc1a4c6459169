package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"repro/internal/datasets"
	"repro/internal/journal"
)

// This file lets static shards (stpt-bench -shard i/n) compute disjoint
// parts of one comparison sweep, on any hosts, each into its own
// checkpoint file. A shard runs the serial sweep and skips the
// (dataset, algorithm, rep) cells it does not own, so it keys, computes
// and records each of its cells exactly as the serial sweep does.
// Concatenated, the shard files are one checkpoint that the unchanged
// sweep reads back into the serial tables. Two properties make that
// sound:
//
//  1. Cells are deterministic: a cell's value depends only on the bound
//     options and the cell key, never on which process computes it or
//     when.
//  2. Cells are idempotent checkpoint units: a cell computed twice
//     yields byte-identical JSON, so a rerun shard or a key present in
//     two files is harmless.

// boundOptions is a checkpoint's record of the options its cells were
// computed under: every output-affecting knob of Options except Reps,
// since cells are shared across rep counts as across Workers and Retry.
// A file binds only to an identical record, so a change to these fields
// or their JSON tags would orphan every checkpoint already written.
type boundOptions struct {
	Cx          int     `json:"cx"`
	Cy          int     `json:"cy"`
	TTrain      int     `json:"t_train"`
	Horizon     int     `json:"horizon"`
	Depth       int     `json:"depth"`
	WindowSize  int     `json:"window_size"`
	QuantLevels int     `json:"quant_levels"`
	EmbedDim    int     `json:"embed_dim"`
	Hidden      int     `json:"hidden"`
	Epochs      int     `json:"epochs"`
	EpsPattern  float64 `json:"eps_pattern"`
	EpsSanitize float64 `json:"eps_sanitize"`
	Queries     int     `json:"queries"`
	Seed        int64   `json:"seed"`
	Households  int     `json:"households,omitempty"`
}

// optionsKey is the checkpoint entry that records the options a file's
// cells were computed under. It contains a ':', which no cell key does.
const optionsKey = "experiments:options"

// BindCheckpoint ties ck to the options that produce its cells, so a
// file never serves cells computed under other options. A fresh
// checkpoint records o's output-affecting options (boundOptions); the
// experiment, its row, Reps, Workers and Retry are left out, since cells
// are shared across them. A checkpoint recorded under other options is
// refused, and so is a non-empty one with no record, whose cells cannot
// be matched to any options, and one whose lines record two different
// options — shards run under different options and then concatenated,
// whose cells no single run would compute. Every shard records the same
// line, so a concatenation of agreeing shards binds. It returns the
// number of completed cells, not counting reserved entries.
func BindCheckpoint(ck *journal.Checkpoint, o Options) (int, error) {
	want := boundOptions{
		Cx: o.Cx, Cy: o.Cy, TTrain: o.TTrain, Horizon: o.Horizon,
		Depth: o.Depth, WindowSize: o.WindowSize, QuantLevels: o.QuantLevels,
		EmbedDim: o.EmbedDim, Hidden: o.Hidden, Epochs: o.Epochs,
		EpsPattern: o.EpsPattern, EpsSanitize: o.EpsSanitize,
		Queries: o.Queries, Seed: o.Seed, Households: o.Households,
	}
	show := func(b boundOptions) string {
		raw, _ := json.Marshal(b)
		return string(raw)
	}
	var got boundOptions
	switch {
	case ck.Lookup(optionsKey, &got):
		if earlier, ok := ck.Replaced(optionsKey); ok {
			return 0, fmt.Errorf("experiments: checkpoint mixes cells computed under options %s and %s; concatenate only shards run under the same options", earlier, show(got))
		}
		if got != want {
			return 0, fmt.Errorf("experiments: checkpoint cells were computed under options %s, not this run's %s", show(got), show(want))
		}
	case ck.Len() > 0:
		return 0, fmt.Errorf("experiments: checkpoint has %d entries but no options record, so its cells cannot be matched to this run's options %s", ck.Len(), show(want))
	default:
		if err := ck.Record(optionsKey, want); err != nil {
			return 0, err
		}
	}
	cells := 0
	for _, key := range ck.Keys() {
		if !strings.Contains(key, ":") {
			cells++
		}
	}
	return cells, nil
}

// Shard is one of N static slices of a comparison sweep's cells
// (stpt-bench -shard I/N). A cell belongs to the shard its key's FNV-1a
// hash picks rather than to one picked by its place in the sweep, since
// the rep count is not bound to a checkpoint and changing it would move
// every later cell to another shard.
type Shard struct{ I, N int }

// ParseShard parses "i/n", 0 <= i < n.
func ParseShard(s string) (Shard, error) {
	is, ns, ok := strings.Cut(s, "/")
	i, ierr := strconv.Atoi(is)
	n, nerr := strconv.Atoi(ns)
	if !ok || ierr != nil || nerr != nil || n < 1 || i < 0 || i >= n {
		return Shard{}, fmt.Errorf("experiments: shard %q is not i/n with 0 <= i < n", s)
	}
	return Shard{I: i, N: n}, nil
}

// Owns reports whether the cell key falls in the shard.
func (s Shard) Owns(key string) bool {
	h := fnv.New32a()
	h.Write([]byte(key))
	return h.Sum32()%uint32(s.N) == uint32(s.I)
}

// comparisonSweep resolves a sweep that shards can split to its table
// and the rows it runs: every comparison table, whole, and fig6-single,
// whose one row dataset and layout pick. The fig8 panels, the ablations,
// table2 and fig9 run whole and are refused.
func comparisonSweep(experiment, dataset, layout string) (comparison, []tableRow, error) {
	var names []string
	for _, c := range comparisons() {
		names = append(names, c.name)
		if experiment == c.name {
			return c, c.rows(), nil
		}
		if c.single == "" {
			continue
		}
		names = append(names, c.single)
		if experiment == c.single {
			spec, err := datasets.ByName(dataset)
			if err != nil {
				return comparison{}, nil, err
			}
			lay, err := datasets.ParseLayout(layout)
			if err != nil {
				return comparison{}, nil, err
			}
			return c, []tableRow{{spec, lay}}, nil
		}
	}
	return comparison{}, nil, fmt.Errorf("experiments: %q is not a comparison sweep, so it has no cells to shard (sweeps: %s)",
		experiment, strings.Join(names, ", "))
}

// CheckShardable returns RunShard's refusal of the sweep, if any,
// without running it, so a caller can refuse before it creates files.
func CheckShardable(experiment, dataset, layout string) error {
	_, _, err := comparisonSweep(experiment, dataset, layout)
	return err
}

// RunShard computes the cells of the named comparison sweep that shard
// owns into o.Checkpoint: it runs the serial sweep, on o.Workers and
// under o.Retry, with every cell another shard owns skipped. dataset and
// layout select fig6-single's row. Cells the checkpoint already holds
// are not recomputed, so a shard that died resumes from its own file. It
// returns the number of cells recorded.
func RunShard(ctx context.Context, o Options, experiment, dataset, layout string, shard Shard) (int, error) {
	c, rows, err := comparisonSweep(experiment, dataset, layout)
	if err != nil {
		return 0, err
	}
	before := o.Checkpoint.Len()
	o.shard = &shard
	if _, err := o.runComparison(ctx, c, rows); err != nil {
		return 0, err
	}
	return o.Checkpoint.Len() - before, nil
}
