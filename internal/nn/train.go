package nn

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/parallel"
	"repro/internal/resilience"
	"repro/internal/timeseries"
)

// TrainConfig holds the training hyper-parameters of Appendix C.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	ClipNorm  float64 // 0 disables gradient clipping
}

// Trainer fits a Model on supervised windows with mini-batch gradient
// descent and MSE loss.
//
// Workers controls data-parallel gradient computation: each mini-batch is
// split into contiguous shards, one shadow clone of the model per worker
// (see ShadowCloner), and shard gradients are reduced into the base
// parameters in shard order. Workers <= 1 (the zero value) runs the
// historical serial loop and is bit-identical to it; Workers = N is
// deterministic for fixed N (shard boundaries and reduction order depend
// only on batch size and N) but regroups floating-point sums relative to
// the serial path. Models that do not implement ShadowCloner run serially.
type Trainer struct {
	Model   Model
	Opt     Optimizer
	Cfg     TrainConfig
	Rng     *rand.Rand
	Workers int
}

// FitContext trains the model and returns the mean training loss of each
// epoch. The context is checked at every batch boundary, so a cancelled or
// deadline-expired training run stops within one batch rather than one
// full fit. Divergence (non-finite weights after an epoch) is reported as
// a retryable error: a fresh seed usually draws DP noise the optimiser
// survives.
func (tr *Trainer) FitContext(ctx context.Context, samples []timeseries.Window) ([]float64, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("nn: no training samples")
	}
	if tr.Cfg.Epochs <= 0 || tr.Cfg.BatchSize <= 0 {
		return nil, fmt.Errorf("nn: invalid config %+v", tr.Cfg)
	}
	clones := tr.workerClones()
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	params := tr.Model.Params()
	losses := make([]float64, 0, tr.Cfg.Epochs)
	for epoch := 0; epoch < tr.Cfg.Epochs; epoch++ {
		tr.Rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochLoss float64
		for start := 0; start < len(idx); start += tr.Cfg.BatchSize {
			if err := ctx.Err(); err != nil {
				return losses, err
			}
			end := start + tr.Cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			batch := idx[start:end]
			if clones == nil {
				ZeroGrads(params)
				// d(MSE)/dpred averaged over the batch.
				n := float64(len(batch))
				pass(tr.Model, samples, batch, func(diff float64) float64 { return 2 * diff / n }, &epochLoss)
			} else {
				epochLoss += tr.parallelBatch(clones, samples, batch, params)
			}
			ClipGrads(params, tr.Cfg.ClipNorm)
			tr.Opt.Step(params)
		}
		losses = append(losses, epochLoss/float64(len(samples)))
		if err := resilience.Fire(ctx, resilience.FaultTrainStep, params); err != nil {
			return losses, err
		}
		if err := CheckFinite(params); err != nil {
			return losses, resilience.MarkRetryable(fmt.Errorf("nn: training diverged at epoch %d: %w", epoch, err))
		}
	}
	return losses, nil
}

// workerClones returns one shadow clone per worker, or nil when the fit
// runs serially (Workers <= 1 or the model cannot be cloned).
func (tr *Trainer) workerClones() []Model {
	sc, ok := tr.Model.(ShadowCloner)
	if tr.Workers <= 1 || !ok {
		return nil
	}
	clones := make([]Model, tr.Workers)
	for i := range clones {
		clones[i] = sc.ShadowClone()
	}
	return clones
}

// parallelBatch shards one mini-batch across the worker clones, runs
// forward/backward per shard concurrently, and reduces gradients and the
// squared-error sum into the base parameters in shard order. The returned
// loss contribution and the gradients depend only on the batch contents
// and the shard layout, never on goroutine scheduling.
func (tr *Trainer) parallelBatch(clones []Model, samples []timeseries.Window, batch []int, params []*Param) float64 {
	shards := parallel.Shards(len(batch), len(clones))
	lossByShard := make([]float64, len(shards))
	scale := 2 / float64(len(batch))
	parallel.ForEachShard(len(clones), len(batch), func(s int, r parallel.Range) {
		m := clones[s]
		ZeroGrads(m.Params())
		var loss float64
		pass(m, samples, batch[r.Lo:r.Hi], func(diff float64) float64 { return scale * diff }, &loss)
		lossByShard[s] = loss
	})
	// Shard-ordered reduction: Params() enumerates parameters in a fixed
	// order, so base[i] and clone[i] always refer to the same tensor.
	ZeroGrads(params)
	var loss float64
	for s := range shards {
		cp := clones[s].Params()
		for i, p := range params {
			p.G.Add(p.G, cp[i].G)
		}
		loss += lossByShard[s]
	}
	return loss
}

// pass runs forward and backward over samples[batch[i]] on m, in batch
// order, adding each squared error to *loss and backpropagating dPred of
// its error. The attentive GRU runs the batch as one lockstep block
// (DESIGN §13), with the bits of the per-sample loop every other model
// runs.
func pass(m Model, samples []timeseries.Window, batch []int, dPred func(diff float64) float64, loss *float64) {
	if am, ok := m.(*AttentiveGRUModel); ok {
		pred, d := am.forwardBlock(samples, batch)
		for i, si := range batch {
			diff := pred[i] - samples[si].Target
			*loss += diff * diff
			d[i] = dPred(diff)
		}
		am.backwardBlock()
		return
	}
	for _, si := range batch {
		w := samples[si]
		pred, cache := m.Forward(w.Input, w.Ctx)
		diff := pred - w.Target
		*loss += diff * diff
		m.Backward(cache, dPred(diff))
	}
}
