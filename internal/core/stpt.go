package core

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/dp"
	"repro/internal/grid"
	"repro/internal/resilience"
	"repro/internal/timeseries"
)

// Result is the output of one STPT run.
type Result struct {
	// Sanitized is C_sanitized: the ε_tot-DP release of the consumption
	// matrix over the horizon [TTrain, T), in original (kWh) units.
	Sanitized *grid.Matrix
	// Truth is the non-private consumption matrix over the same horizon,
	// retained for utility evaluation only (never released).
	Truth *grid.Matrix
	// Pattern is C_pattern, the normalised private estimates.
	Pattern *PatternResult
	// PatternMAE/PatternRMSE compare C_pattern against the true
	// normalised horizon (the Figure 8(a,b,e,f) metrics).
	PatternMAE, PatternRMSE float64
	// Partitions is the number of non-empty quantization buckets.
	Partitions int
	// Accountant records the composition structure of the spend.
	Accountant *dp.Accountant
	// Recovery records how the run survived failures: total attempts,
	// whether it degraded past the configured model, and the final model
	// used. A clean run reports Attempts == 1, Degraded == false.
	Recovery *resilience.Report
}

// RunContext executes STPT end to end on a dataset whose first cfg.TTrain
// readings are the training prefix and whose remainder is the released
// horizon, with cooperative cancellation and fault recovery.
//
// Cancellation: the context is checked between phases, at every training
// batch and at every rollout row, so a cancelled or deadline-expired run
// stops promptly and returns the context's error.
//
// Recovery: a retryable failure (training divergence) re-runs the whole
// pipeline up to cfg.Retry.Attempts() times with a seed jittered by
// cfg.Retry.SeedJitter — each attempt draws fresh DP noise and fresh
// initial weights, which is what divergence under Laplace-noised training
// data needs. If every attempt fails, the models in cfg.FallbackModels
// are tried in order under the same per-model attempt budget; the default
// chain ends with ModelPersistence, which cannot diverge. The outcome is
// recorded in Result.Recovery. Note each attempt spends its noise budget
// afresh: a deployment resuming from a failed attempt should treat the
// retries' extra draws as additional ε or cache the sanitised tree (the
// DESIGN.md "Failure semantics" section discusses this).
func RunContext(ctx context.Context, d *timeseries.Dataset, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if d.T() <= cfg.TTrain {
		return nil, fmt.Errorf("core: dataset length %d must exceed TTrain %d", d.T(), cfg.TTrain)
	}

	report := &resilience.Report{}
	chain := []ModelKind{cfg.Model}
	for _, k := range cfg.FallbackModels {
		if k != cfg.Model {
			chain = append(chain, k)
		}
	}
	var err error
	for mi, kind := range chain {
		attempt := cfg
		attempt.Model = kind
		var res *Result
		err = resilience.Retry(ctx, cfg.Retry, func(int, int64) error {
			// Seeds count attempts across the whole chain, not per model:
			// attempt 0 of the configured model runs with the caller's
			// exact seed, preserving bit-for-bit reproducibility of
			// non-failing runs, and no two attempts share a seed.
			attempt.Seed = cfg.Seed + int64(report.Attempts)*cfg.Retry.SeedJitter
			report.Attempts++
			var rerr error
			res, rerr = runOnce(ctx, d, attempt)
			report.Note(rerr)
			return rerr
		})
		if err == nil {
			report.Degraded = mi > 0
			report.Final = kind.String()
			res.Recovery = report
			return res, nil
		}
		if !resilience.IsRetryable(err) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("core: all %d attempts failed: %w", report.Attempts, err)
}

// runOnce executes one pipeline attempt.
func runOnce(ctx context.Context, d *timeseries.Dataset, cfg Config) (*Result, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	acct := dp.NewAccountant("stpt", dp.Sequential)

	work := d
	if cfg.ClipFactor > 0 {
		work = d.Clone()
		work.Clip(cfg.ClipFactor)
	}
	norm := timeseries.FitNormalizerWorkers(work, cfg.Workers)
	normData := norm.Apply(work)

	// Phase 1: pattern recognition (ε_pattern).
	patScope := acct.Root().Child("pattern", dp.Sequential)
	pat, err := patternStep(ctx, normData, cfg, rng, patScope)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Phase 2: sanitisation of the released horizon (ε_sanitize).
	truth := grid.FromDataset(work, cfg.TTrain, work.T())
	cellSens := norm.Max // one user's clipped reading bounds a cell's change
	if cellSens <= 0 {
		cellSens = 1
	}
	lap := dp.NewLaplace(rng)
	sanScope := acct.Root().Child("sanitize", dp.Sequential)

	var sanitized *grid.Matrix
	parts := 0
	if cfg.NoPartitions {
		sanitized = sanitizePerCell(truth, cfg, cellSens, lap, sanScope)
	} else {
		partition := QuantizeModeWorkers(pat.Pattern, cfg.QuantLevels, cfg.Quant, cfg.Workers)
		parts = len(partition)
		sanitized = sanitizeStep(truth, partition, cfg, cellSens, lap, sanScope)
	}

	res := &Result{
		Sanitized:  sanitized,
		Truth:      truth,
		Pattern:    pat,
		Partitions: parts,
		Accountant: acct,
	}
	res.PatternMAE, res.PatternRMSE = patternError(normData, cfg.TTrain, pat.Pattern)
	return res, nil
}

// patternError evaluates C_pattern against the true normalised cell
// totals over the horizon — the quantity the pattern estimates (C_norm's
// cell sums), per the Theorem-6 representative semantics.
func patternError(norm *timeseries.Dataset, tTrain int, pattern *grid.Matrix) (mae, rmse float64) {
	sums := grid.FromDataset(norm, tTrain, norm.T())
	return timeseries.MAE(sums.Data(), pattern.Data()), timeseries.RMSE(sums.Data(), pattern.Data())
}
