package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dp"
	"repro/internal/grid"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/quadtree"
	"repro/internal/timeseries"
)

// patternCtxDim is the number of side features fed to the predictor along
// with each window: the source neighbourhood's normalised centre (x, y)
// and its spatial extent as a fraction of the grid. The paper's RNN input
// "comprises time series data along with their corresponding geographic
// locations"; the extent feature additionally tells the model which
// quadtree granularity a series came from.
const patternCtxDim = 3

// PatternResult carries the outputs of the pattern-recognition phase.
type PatternResult struct {
	// Pattern is C_pattern: private estimates of the normalised
	// consumption per cell over the released horizon (Cx x Cy x horizon).
	Pattern *grid.Matrix
	// TrainEstimates holds each cell's sanitised training series (the
	// root-to-leaf path through the quadtree levels), used for seeding
	// rollouts and for the flat-training ablation.
	TrainEstimates *grid.Matrix
	// Losses is the per-epoch training loss curve (nil for persistence).
	Losses []float64
	// Samples is the number of training windows.
	Samples int
}

// trainSeries is one sanitised series plus the context features describing
// where (and at what granularity) it was measured.
type trainSeries struct {
	values []float64
	ctx    []float64
}

// patternStep trains the predictor on sanitised training data and rolls it
// forward to produce C_pattern. norm is the full normalised dataset;
// horizon = norm.T() - cfg.TTrain values are predicted per cell.
//
// The privacy cost of everything here is cfg.EpsPattern: the quadtree
// representative series (or, for the flat ablation, the per-cell pillars)
// are the only place true data is touched, and each of the TTrain
// timestamps is charged EpsPattern/TTrain at its Theorem-6 sensitivity.
// Training and rollout are post-processing (Theorem 3).
func patternStep(ctx context.Context, norm *timeseries.Dataset, cfg Config, rng *rand.Rand, acct dp.Scope) (*PatternResult, error) {
	horizon := norm.T() - cfg.TTrain
	if horizon <= 0 {
		return nil, fmt.Errorf("core: dataset length %d leaves no released horizon beyond TTrain %d", norm.T(), cfg.TTrain)
	}
	lap := dp.NewLaplace(rng)

	var trainEst *grid.Matrix
	var corpus []trainSeries
	cellCtx := func(x, y int, frac float64) []float64 {
		return []float64{
			(float64(x) + 0.5) / float64(norm.Cx),
			(float64(y) + 0.5) / float64(norm.Cy),
			frac,
		}
	}
	leafFrac := 1.0 / float64(norm.Cx)

	if cfg.FlatTraining {
		trainEst = flatSanitizedTraining(norm, cfg, lap, acct)
		for y := 0; y < norm.Cy; y++ {
			for x := 0; x < norm.Cx; x++ {
				corpus = append(corpus, trainSeries{values: trainEst.Pillar(x, y), ctx: cellCtx(x, y, leafFrac)})
			}
		}
	} else {
		tree, err := quadtree.Build(norm, quadtree.Params{Cx: norm.Cx, Cy: norm.Cy, Depth: cfg.Depth, TTrain: cfg.TTrain})
		if err != nil {
			return nil, err
		}
		charged := tree.Sanitize(lap, cfg.EpsPattern)
		acct.Child("quadtree", dp.Sequential).Spend(charged)
		var denoised *smoothedTree
		if !cfg.RawSeeds {
			denoised = smoothTree(tree, norm.Cx, norm.Cy, cfg.TTrain, cfg.EpsPattern)
		}
		i := 0
		for _, lvl := range tree.Levels {
			for _, nb := range lvl.Neighborhoods {
				values := nb.Series
				if denoised != nil {
					values = denoised.Corpus[i]
				}
				corpus = append(corpus, trainSeries{
					values: values,
					ctx: []float64{
						(float64(nb.X0) + float64(nb.X1-nb.X0+1)/2) / float64(norm.Cx),
						(float64(nb.Y0) + float64(nb.Y1-nb.Y0+1)/2) / float64(norm.Cy),
						float64(nb.X1-nb.X0+1) / float64(norm.Cx),
					},
				})
				i++
			}
		}
		leafSide := norm.Cx >> cfg.Depth
		leafFrac = float64(leafSide) / float64(norm.Cx)
		if denoised != nil {
			trainEst = denoised.Est
		} else {
			trainEst = pathEstimates(tree, norm.Cx, norm.Cy, cfg.TTrain)
		}
	}

	res := &PatternResult{TrainEstimates: trainEst}

	if cfg.Model == ModelPersistence {
		res.Pattern = grid.NewMatrix(norm.Cx, norm.Cy, horizon)
		for y := 0; y < norm.Cy; y++ {
			for x := 0; x < norm.Cx; x++ {
				last := math.Max(0, trainEst.At(x, y, cfg.TTrain-1))
				for t := 0; t < horizon; t++ {
					res.Pattern.Set(x, y, t, last)
				}
			}
		}
		return res, nil
	}

	// Stacked windows across all sanitised series (Figure 2(b)), each
	// tagged with its source neighbourhood's context. Every window is
	// normalised by its own mean: cell totals span orders of magnitude
	// across space (density skew), and a model trained on absolute values
	// either saturates on the dense cells or collapses the sparse ones.
	// Shape-normalised training makes the model learn temporal dynamics,
	// while each cell's level is re-applied at rollout — so an
	// autoregressive rollout cannot drift a cell to the global mean.
	var samples []timeseries.Window
	for _, ts := range corpus {
		for _, w := range timeseries.SlidingWindows(ts.values, cfg.WindowSize) {
			m := windowLevel(w.Input)
			for i := range w.Input {
				w.Input[i] /= m
			}
			w.Target /= m
			w.Ctx = ts.ctx
			samples = append(samples, w)
		}
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("core: no training windows: series too short for window %d (increase TTrain or decrease depth)", cfg.WindowSize)
	}
	res.Samples = len(samples)

	model, err := buildModel(cfg, rng)
	if err != nil {
		return nil, err
	}
	trainer := &nn.Trainer{Model: model, Opt: nn.NewRMSProp(cfg.LR), Cfg: cfg.Train, Rng: rng, Workers: cfg.Workers}
	losses, err := trainer.FitContext(ctx, samples)
	if err != nil {
		return nil, err
	}
	res.Losses = losses

	// Roll each cell's sanitised training path forward over the horizon,
	// conditioned on the cell's location at the finest trained extent.
	res.Pattern = grid.NewMatrix(norm.Cx, norm.Cy, horizon)
	if err := rolloutPattern(ctx, model, trainEst, res.Pattern, cfg, cellCtx, leafFrac, horizon); err != nil {
		return nil, err
	}
	return res, nil
}

// rolloutPattern fills pattern with each cell's autoregressive rollout.
// Rows are sharded across cfg.Workers, each shard driving its own model
// (see rolloutClones): rollout only reads weights, but model instances own
// scratch buffers and are single-goroutine. A shard rolls its cells one
// grid row at a time, the row's cells in lockstep (nn.Rollouts), with
// every bit as a per-cell nn.Rollout gives it. Rollout draws no
// randomness, so the result is bit-identical for every worker count.
func rolloutPattern(ctx context.Context, model nn.Model, trainEst, pattern *grid.Matrix, cfg Config, cellCtx func(x, y int, frac float64) []float64, leafFrac float64, horizon int) error {
	clones := rolloutClones(model, cfg.Workers, pattern.Cy)
	errs := make([]error, len(clones))
	parallel.ForEachShard(len(clones), pattern.Cy, func(s int, r parallel.Range) {
		levels := make([]float64, pattern.Cx)
		shapes := make([][]float64, pattern.Cx)
		ctxs := make([][]float64, pattern.Cx)
		for y := r.Lo; y < r.Hi; y++ {
			if err := ctx.Err(); err != nil {
				errs[s] = err
				return
			}
			for x := 0; x < pattern.Cx; x++ {
				seed := trainEst.Pillar(x, y)
				if len(seed) < cfg.WindowSize {
					errs[s] = fmt.Errorf("core: training path %d shorter than window %d", len(seed), cfg.WindowSize)
					return
				}
				levels[x], shapes[x] = leveledShape(seed, cfg.WindowSize)
				ctxs[x] = cellCtx(x, y, leafFrac)
			}
			for x, pred := range nn.Rollouts(clones[s], shapes, ctxs, horizon, clampShape) {
				for t, v := range pred {
					pattern.Set(x, y, t, v*levels[x])
				}
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// rolloutClones returns the model each rollout shard drives: the trained
// model itself when the rows make one shard (or the model cannot be
// cloned), else one shadow clone per shard.
func rolloutClones(model nn.Model, workers, rows int) []nn.Model {
	shards := parallel.Shards(rows, workers)
	sc, ok := model.(nn.ShadowCloner)
	if len(shards) <= 1 || !ok {
		return []nn.Model{model}
	}
	clones := make([]nn.Model, len(shards))
	for i := range clones {
		clones[i] = sc.ShadowClone()
	}
	return clones
}

// windowLevel returns the normalisation level of a window: its mean plus a
// small constant so empty-cell windows map to (near) zero rather than 0/0.
func windowLevel(w []float64) float64 {
	var m float64
	for _, v := range w {
		m += v
	}
	m = m/float64(len(w)) + 1e-3
	return m
}

// leveledShape splits a cell's seed for rollout in shape space: the
// cell's level is anchored once from the last ws seed values, and the
// model rolls their shape (the values over the level) forward,
// predictions clamped to the training shapes' range so autoregression
// cannot drift; the caller re-applies the level to every prediction.
// This is the rollout counterpart of the shape-normalised training
// windows: the temporal pattern comes from the model, the spatial level
// from the cell's own sanitised history.
func leveledShape(seed []float64, ws int) (level float64, shape []float64) {
	level = windowLevel(seed[len(seed)-ws:])
	shape = make([]float64, ws)
	for j, v := range seed[len(seed)-ws:] {
		shape[j] = v / level
	}
	return level, shape
}

// clampShape bounds a predicted shape value before it is fed back.
// Training targets are shape-normalised values, overwhelmingly in [0, 3];
// clamping keeps a mis-extrapolating model from compounding.
func clampShape(p float64) float64 { return math.Max(0, math.Min(p, 3)) }

// buildModel constructs the configured predictor.
func buildModel(cfg Config, rng *rand.Rand) (nn.Model, error) {
	ws, e, h := cfg.WindowSize, cfg.EmbedDim, cfg.Hidden
	switch cfg.Model {
	case ModelRNN:
		return nn.NewRecurrentModel("stpt-rnn", ws, patternCtxDim, e, nn.NewRNNCell("cell", e, h, rng), rng), nil
	case ModelGRU:
		return nn.NewRecurrentModel("stpt-gru", ws, patternCtxDim, e, nn.NewGRUCell("cell", e, h, rng), rng), nil
	case ModelLSTM:
		return nn.NewRecurrentModel("stpt-lstm", ws, patternCtxDim, e, nn.NewLSTMCell("cell", e, h, rng), rng), nil
	case ModelAttentiveGRU:
		return nn.NewAttentiveGRUModel("stpt-attgru", ws, patternCtxDim, e, h, rng), nil
	case ModelTransformer:
		return nn.NewTransformerModel("stpt-transformer", ws, patternCtxDim, e, 2*e, rng), nil
	default:
		return nil, fmt.Errorf("core: unknown model kind %v", cfg.Model)
	}
}

// pathEstimates reconstructs, for every cell, a full-length sanitised
// training series by following the cell's root-to-leaf path through the
// tree levels: level d's segment of the series comes from the depth-d
// neighbourhood containing the cell.
func pathEstimates(tree *quadtree.Tree, cx, cy, tTrain int) *grid.Matrix {
	m := grid.NewMatrix(cx, cy, tTrain)
	for _, lvl := range tree.Levels {
		for y := 0; y < cy; y++ {
			for x := 0; x < cx; x++ {
				nb := lvl.NeighborhoodAt(x, y, cx, cy)
				for i, v := range nb.Series {
					t := lvl.TimeStart + i
					if t < tTrain {
						m.Set(x, y, t, v)
					}
				}
			}
		}
	}
	return m
}

// flatSanitizedTraining is the ablation baseline of Section 4.2's
// "straightforward training method": each cell's training pillar (the
// cell's total normalised consumption, sensitivity 1 per timestamp) is
// perturbed with budget EpsPattern/TTrain per timestamp.
func flatSanitizedTraining(norm *timeseries.Dataset, cfg Config, lap *dp.Laplace, acct dp.Scope) *grid.Matrix {
	m := grid.FromDataset(norm, 0, cfg.TTrain)
	perStep := cfg.EpsPattern / float64(cfg.TTrain)
	scale := dp.Scale(1, perStep)
	for y := 0; y < norm.Cy; y++ {
		for x := 0; x < norm.Cx; x++ {
			for t := 0; t < cfg.TTrain; t++ {
				m.Set(x, y, t, m.At(x, y, t)+lap.Sample(scale))
			}
		}
	}
	acct.Child("flat-training", dp.Sequential).Spend(cfg.EpsPattern)
	return m
}
