package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/datasets"
	"repro/internal/resilience"
)

// This file is the distributed-execution surface of the experiment
// sweeps: it exposes the same (dataset, algorithm, rep) cells that
// checkpointing introduced — keyed identically, e.g.
// "fig6/CER/uniform/stpt/rep3" — as a portable work list, so a
// coordinator can shard them across worker processes and fold the
// results back through the unchanged in-process reduction. Three
// properties make that sound:
//
//  1. Cells are deterministic: a cell's value depends only on the sweep
//     spec and the cell key, never on which process computes it or when.
//  2. Cells are idempotent checkpoint units: a cell computed twice
//     yields byte-identical JSON, so replays after lease expiry are
//     harmless and dedup-by-key is exact.
//  3. The cell value encoding IS the checkpoint cell encoding, so a
//     journal of delivered results is a valid -checkpoint file and the
//     final tables come out of the existing resume path bit for bit.

// SweepSpec is the wire description of a distributable sweep: the
// experiment's identity plus every scalar knob of Options. It
// deliberately carries no process-local state (no checkpoint handle, no
// worker count, no retry policy) — those belong to whichever process
// interprets the spec. A valid spec sets Experiment and Reps; they are
// omitted when zero only so a checkpoint's options record
// (BindCheckpoint) holds just the knobs it binds.
type SweepSpec struct {
	Experiment string `json:"experiment,omitempty"`
	// Dataset and Layout select the single row of fig6-single; other
	// experiments ignore them.
	Dataset string `json:"dataset,omitempty"`
	Layout  string `json:"layout,omitempty"`

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
	Reps        int     `json:"reps,omitempty"`
	Seed        int64   `json:"seed"`
	Households  int     `json:"households,omitempty"`
}

// DistributableExperiments names the sweeps that shard into independent
// (dataset, algorithm, rep) cells: every comparison table and its
// single-row variant. The fig8 panels, the ablations, table2 and fig9
// stay in-process.
func DistributableExperiments() []string {
	var names []string
	for _, c := range comparisons() {
		names = append(names, c.name)
		if c.single != "" {
			names = append(names, c.single)
		}
	}
	return names
}

// NewSweepSpec freezes an Options into a portable spec for the given
// experiment. dataset and layout are consulted only by fig6-single.
func NewSweepSpec(experiment, dataset, layout string, o Options) SweepSpec {
	return SweepSpec{
		Experiment: experiment, Dataset: dataset, Layout: layout,
		Cx: o.Cx, Cy: o.Cy, TTrain: o.TTrain, Horizon: o.Horizon,
		Depth: o.Depth, WindowSize: o.WindowSize, QuantLevels: o.QuantLevels,
		EmbedDim: o.EmbedDim, Hidden: o.Hidden, Epochs: o.Epochs,
		EpsPattern: o.EpsPattern, EpsSanitize: o.EpsSanitize,
		Queries: o.Queries, Reps: o.Reps, Seed: o.Seed, Households: o.Households,
	}
}

// optionsKey is the checkpoint entry that records the options a file's
// cells were computed under. Like dist's "dist:attempts" it contains a
// ':', which no cell key does.
const optionsKey = "experiments:options"

// BindCheckpoint ties ck to the options that produce its cells, so a
// file never serves cells computed under other options. A fresh
// checkpoint records o's output-affecting options: every SweepSpec knob
// except the experiment, its row and Reps, since cells are shared across
// those (as across Workers and Retry). A checkpoint recorded under other
// options is refused, and so is a non-empty one with no record, whose
// cells cannot be matched to any options. It returns the number of
// completed cells, not counting reserved entries.
func BindCheckpoint(ck *resilience.Checkpoint, o Options) (int, error) {
	want := NewSweepSpec("", "", "", o)
	want.Reps = 0
	show := func(s SweepSpec) string {
		raw, _ := json.Marshal(s)
		return string(raw)
	}
	var got SweepSpec
	switch {
	case ck.Lookup(optionsKey, &got):
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

// Options reconstructs the experiment options a worker must run with.
// Workers, Checkpoint and Retry stay zero: a remote cell runs exactly
// one serial pipeline, and durability lives at the coordinator.
func (s SweepSpec) Options() Options {
	return Options{
		Cx: s.Cx, Cy: s.Cy, TTrain: s.TTrain, Horizon: s.Horizon,
		Depth: s.Depth, WindowSize: s.WindowSize, QuantLevels: s.QuantLevels,
		EmbedDim: s.EmbedDim, Hidden: s.Hidden, Epochs: s.Epochs,
		EpsPattern: s.EpsPattern, EpsSanitize: s.EpsSanitize,
		Queries: s.Queries, Reps: s.Reps, Seed: s.Seed, Households: s.Households,
	}
}

// Validate rejects specs that could not have come from a well-formed
// coordinator before any expensive work starts.
func (s SweepSpec) Validate() error {
	if _, _, err := s.table(); err != nil {
		return err
	}
	if s.Cx <= 0 || s.Cy <= 0 || s.TTrain <= 0 || s.Horizon <= 0 {
		return fmt.Errorf("experiments: spec has non-positive dimensions (cx=%d cy=%d t_train=%d horizon=%d)", s.Cx, s.Cy, s.TTrain, s.Horizon)
	}
	if s.Reps <= 0 {
		return fmt.Errorf("experiments: spec has reps=%d, want >= 1", s.Reps)
	}
	if s.Queries <= 0 {
		return fmt.Errorf("experiments: spec has queries=%d, want >= 1", s.Queries)
	}
	return nil
}

// DecodeSweepSpec parses and validates a wire spec.
func DecodeSweepSpec(raw []byte) (SweepSpec, error) {
	var s SweepSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return SweepSpec{}, fmt.Errorf("experiments: decoding sweep spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return SweepSpec{}, err
	}
	return s, nil
}

// table resolves the spec to its comparison declaration and the rows it
// sweeps, in canonical order — the exact flattening order the in-process
// runner feeds runCells.
func (s SweepSpec) table() (comparison, []tableRow, error) {
	for _, c := range comparisons() {
		if s.Experiment == c.name {
			return c, c.rows(), nil
		}
		if c.single != "" && s.Experiment == c.single {
			spec, err := datasets.ByName(s.Dataset)
			if err != nil {
				return comparison{}, nil, err
			}
			layout, err := datasets.ParseLayout(s.Layout)
			if err != nil {
				return comparison{}, nil, err
			}
			return c, []tableRow{{spec, layout}}, nil
		}
	}
	return comparison{}, nil, fmt.Errorf("experiments: %q is not distributable (distributable: %s)",
		s.Experiment, strings.Join(DistributableExperiments(), ", "))
}

// WorkList enumerates every cell key of the sweep in canonical order:
// row-major, then column, then rep — the same order the in-process
// reduction consumes them. Enumeration is cheap (no dataset is
// generated), so a coordinator can build its lease table instantly.
func (s SweepSpec) WorkList() ([]string, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	c, rows, _ := s.table() // Validate resolved it
	cols := c.columns()
	var keys []string
	for _, row := range rows {
		for _, col := range cols {
			for rep := 0; rep < s.Reps; rep++ {
				keys = append(keys, repKey(c.prefix(row)+"/"+col.name, rep))
			}
		}
	}
	return keys, nil
}

// CellRunner executes individual sweep cells by checkpoint key. Row
// inputs (generated dataset, truth matrix, shared queries) are built
// once per row and cached, so a worker streaming through a row's cells
// pays the generation cost once. Execute is safe for concurrent use.
type CellRunner struct {
	opts  Options
	table comparison
	rows  map[string]*rowState
}

// rowState builds its row's cells on first use: building generates the
// row's dataset, so it is deliberately lazy.
type rowState struct {
	once  sync.Once
	row   tableRow
	cells []algCells
}

// NewCellRunner validates the spec and prepares (but does not build)
// its rows.
func NewCellRunner(spec SweepSpec) (*CellRunner, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	c, rows, _ := spec.table() // Validate resolved it
	r := &CellRunner{opts: spec.Options(), table: c, rows: make(map[string]*rowState, len(rows))}
	for _, row := range rows {
		r.rows[c.prefix(row)] = &rowState{row: row}
	}
	return r, nil
}

// SplitCellKey parses "<row-prefix>/<alg>/rep<N>" into its parts.
func SplitCellKey(key string) (rowPrefix, alg string, rep int, err error) {
	i := strings.LastIndexByte(key, '/')
	if i < 0 || !strings.HasPrefix(key[i+1:], "rep") {
		return "", "", 0, fmt.Errorf("experiments: cell key %q does not end in /rep<N>", key)
	}
	rep, aerr := strconv.Atoi(key[i+4:])
	if aerr != nil || rep < 0 {
		return "", "", 0, fmt.Errorf("experiments: cell key %q has a malformed rep index", key)
	}
	rest := key[:i]
	j := strings.LastIndexByte(rest, '/')
	if j <= 0 || j == len(rest)-1 {
		return "", "", 0, fmt.Errorf("experiments: cell key %q is missing its algorithm segment", key)
	}
	return rest[:j], rest[j+1:], rep, nil
}

// Execute runs one cell and returns its checkpoint-encoded JSON value —
// byte-identical to what a serial checkpointed sweep would record under
// the same key.
func (r *CellRunner) Execute(ctx context.Context, key string) ([]byte, error) {
	prefix, alg, rep, err := SplitCellKey(key)
	if err != nil {
		return nil, err
	}
	row, ok := r.rows[prefix]
	if !ok {
		return nil, fmt.Errorf("experiments: cell %q is not part of this sweep", key)
	}
	if rep >= r.opts.Reps {
		return nil, fmt.Errorf("experiments: cell %q has rep %d, sweep runs %d reps", key, rep, r.opts.Reps)
	}
	row.once.Do(func() { row.cells = r.opts.rowCells(r.table, row.row) })
	want := prefix + "/" + alg
	for _, cells := range row.cells {
		if cells.prefix != want {
			continue
		}
		m, err := cells.run(ctx, rep)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", key, err)
		}
		return json.Marshal(encodeMRE(m))
	}
	return nil, fmt.Errorf("experiments: cell %q names no algorithm slot of row %q", key, prefix)
}

// ValidateCellValue checks that an uploaded cell value is a well-formed
// checkpoint cell this build can fold into tables: valid JSON, known
// query classes, at least one class. The coordinator runs this before
// journaling, so a corrupt upload is refused instead of surfacing hours
// later as a silent cache miss during reduction.
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
