// Package stpt is the public API of the STPT library, a reproduction of
// "Differentially Private Publication of Smart Electricity Grid Data"
// (EDBT 2025). It publishes spatio-temporal electricity consumption
// matrices under user-level ε-differential privacy by (1) privately
// learning consumption patterns with a sequence model trained on a
// hierarchically sanitised spatio-temporal quadtree and (2) releasing
// Laplace-sanitised aggregates over a value-homogeneous partitioning
// derived from the learned patterns.
//
// A minimal end-to-end use:
//
//	data := stpt.GenerateDataset(stpt.SpecCER, stpt.LayoutUniform, 32, 32, 220, 1)
//	cfg := stpt.DefaultConfig()
//	res, err := stpt.RunContext(context.Background(), data, cfg)
//	// res.Sanitized is the ε_tot-DP release; evaluate utility:
//	mre := stpt.EvaluateMRE(res.Truth, res.Sanitized, stpt.QueryRandom, 300, 1)
package stpt

import (
	"context"
	"fmt"
	"io"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/grid"
	"repro/internal/journal"
	"repro/internal/ldp"
	"repro/internal/query"
	"repro/internal/resilience"
	"repro/internal/timeseries"
)

// Core data types, re-exported from the implementation packages.
type (
	// Dataset is the meter-reading database: N household series of equal
	// length placed on a Cx x Cy grid.
	Dataset = timeseries.Dataset
	// Series is one household's readings.
	Series = timeseries.Series
	// Location is a grid cell coordinate.
	Location = timeseries.Location
	// Matrix is a Cx x Cy x Ct consumption matrix.
	Matrix = grid.Matrix
	// Query is an inclusive-bounds 3-orthotope range query.
	Query = grid.Query
	// Config holds all STPT knobs; see DefaultConfig.
	Config = core.Config
	// ModelKind selects the pattern-recognition network.
	ModelKind = core.ModelKind
	// Result is an STPT run's output: the DP release plus diagnostics.
	Result = core.Result
	// DatasetSpec describes a synthetic dataset calibrated to Table 2.
	DatasetSpec = datasets.Spec
	// Algorithm is a baseline release mechanism.
	Algorithm = baselines.Algorithm
	// BaselineInput bundles a baseline's inputs.
	BaselineInput = baselines.Input
	// RetryPolicy governs retry-with-fresh-seed on retryable failures
	// (Config.Retry); the zero value means a single attempt.
	RetryPolicy = resilience.Policy
	// RecoveryReport records how a run recovered — attempts consumed,
	// whether it degraded to a fallback model (Result.Recovery).
	RecoveryReport = resilience.Report
	// Checkpoint persists completed sweep cells for crash-safe resume.
	Checkpoint = journal.Checkpoint
)

// Model kinds for Config.Model (Figure 8(i)).
const (
	ModelRNN          = core.ModelRNN
	ModelGRU          = core.ModelGRU
	ModelLSTM         = core.ModelLSTM
	ModelAttentiveGRU = core.ModelAttentiveGRU
	ModelTransformer  = core.ModelTransformer
	ModelPersistence  = core.ModelPersistence
)

// Dataset specs from the paper's Table 2.
var (
	SpecCER = datasets.CER
	SpecCA  = datasets.CA
	SpecMI  = datasets.MI
	SpecTX  = datasets.TX
)

// Household layouts from Section 5.1.
const (
	LayoutUniform    = datasets.Uniform
	LayoutNormal     = datasets.Normal
	LayoutLosAngeles = datasets.LosAngeles
)

// Query workload classes from Section 5.1.
const (
	QueryRandom = query.Random
	QuerySmall  = query.Small
	QueryLarge  = query.Large
)

// DefaultConfig mirrors the paper's experimental testbed with
// CPU-friendly network sizes.
func DefaultConfig() Config { return core.DefaultConfig() }

// RunContext executes STPT on a dataset whose first cfg.TTrain readings
// form the training prefix and whose remainder is the released horizon.
// Training and release stop promptly when ctx is cancelled or its deadline
// passes. Retryable failures (e.g. diverged training) are retried per
// cfg.Retry and degrade down cfg.FallbackModels; Result.Recovery records
// what happened.
func RunContext(ctx context.Context, d *Dataset, cfg Config) (*Result, error) {
	return core.RunContext(ctx, d, cfg)
}

// DefaultRetryPolicy is the retry policy used by DefaultConfig: three
// attempts with deterministic seed jitter between them.
func DefaultRetryPolicy() RetryPolicy { return resilience.DefaultPolicy() }

// OpenCheckpoint opens (or creates) a sweep checkpoint file for use with
// the experiment runners' Options.Checkpoint.
func OpenCheckpoint(path string) (*Checkpoint, error) { return journal.OpenCheckpoint(path) }

// GenerateDataset synthesises a dataset calibrated to the spec's published
// statistics, with households placed under the layout.
func GenerateDataset(spec DatasetSpec, layout datasets.Layout, cx, cy, T int, seed int64) *Dataset {
	return spec.Generate(layout, cx, cy, T, seed)
}

// DatasetSpecs returns the four paper datasets (CER, CA, MI, TX).
func DatasetSpecs() []DatasetSpec { return datasets.All() }

// Baselines returns the comparison algorithms of Figure 6 (Identity, FAST,
// Fourier-10/20, Wavelet-10/20, LGAN-DP).
func Baselines() []Algorithm { return baselines.Registry() }

// Baseline looks an algorithm up by name; "wpo" (Figure 7) is included.
func Baseline(name string) (Algorithm, error) { return baselines.Lookup(name) }

// RunBaselineContext releases the dataset's horizon with the named
// baseline under the given total budget. Iterative baselines (LGAN-DP)
// check ctx between iterations.
func RunBaselineContext(ctx context.Context, name string, d *Dataset, tTrain int, cellSensitivity, epsilon float64, seed int64) (*Matrix, error) {
	alg, err := baselines.Lookup(name)
	if err != nil {
		return nil, err
	}
	if d.T() <= tTrain {
		return nil, fmt.Errorf("stpt: dataset length %d must exceed tTrain %d", d.T(), tTrain)
	}
	in := baselines.Input{Dataset: d, TTrain: tTrain, CellSensitivity: cellSensitivity}
	return baselines.ReleaseContext(ctx, alg, in, epsilon, seed)
}

// TruthMatrix returns the non-private consumption matrix over the horizon
// [tTrain, T), for utility evaluation.
func TruthMatrix(d *Dataset, tTrain int) *Matrix {
	in := baselines.Input{Dataset: d, TTrain: tTrain, CellSensitivity: 1}
	return in.Truth()
}

// EvaluateMRE evaluates a release with count random queries of the class
// and returns the mean relative error in percent (Eq. 5).
func EvaluateMRE(truth, release *Matrix, class query.Class, count int, seed int64) float64 {
	qs := query.GenerateSeeded(seed, class, truth.Cx, truth.Cy, truth.Ct, count)
	return query.Evaluate(truth, release, qs, 0, 1)
}

// SuggestBudgetSplit returns the analytically recommended fraction of
// ε_tot to assign to pattern recognition for the given configuration and
// matrix geometry — the paper's future-work budget-allocation model.
func SuggestBudgetSplit(cfg Config, cx, cy, horizon int) (float64, error) {
	return core.SuggestBudgetSplit(cfg, cx, cy, horizon)
}

// LocalMechanism is a local-DP (no trusted collector) release protocol —
// the paper's future-work decentralised setting.
type LocalMechanism = ldp.Mechanism

// LocalMechanisms returns the implemented local-DP protocols: on-device
// Laplace perturbation of every reading, and sampled reporting.
func LocalMechanisms() []LocalMechanism {
	return []LocalMechanism{ldp.LocalLaplace{}, ldp.LocalSampling{}}
}

// RunLocal releases the dataset's horizon under local DP: every household
// perturbs its own readings before aggregation, protecting against the
// aggregator itself.
func RunLocal(m LocalMechanism, d *Dataset, tTrain int, clip, epsilon float64, seed int64) (*Matrix, error) {
	return m.Release(ldp.Input{Dataset: d, TTrain: tTrain, Clip: clip}, epsilon, seed)
}

// SaveCSV writes a dataset in the library's CSV interchange format.
func SaveCSV(d *Dataset, w io.Writer) error { return datasets.SaveCSV(d, w) }

// LoadCSV reads the CSV interchange format; pass cx, cy <= 0 to infer a
// power-of-two grid from the locations.
func LoadCSV(r io.Reader, name string, cx, cy int) (*Dataset, error) {
	return datasets.LoadCSV(r, name, cx, cy)
}
