// Package nn is a from-scratch neural-network substrate: dense layers,
// Elman RNN / GRU / LSTM recurrent cells, single-head self-attention, layer
// normalisation and a transformer encoder block, trained with manual
// backpropagation-through-time and RMSProp/Adam optimisers. It exists
// because the paper's pattern-recognition step trains sequence models on
// sanitised series (Section 4.2, Figure 4) and the module must be
// self-contained: float64 everywhere, stdlib only.
package nn

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// Param is one trainable tensor and its gradient accumulator.
type Param struct {
	Name string
	W    *mat.Matrix
	G    *mat.Matrix
}

// NewParam allocates a named parameter of the given shape with a zeroed
// gradient.
func NewParam(name string, rows, cols int) *Param {
	return &Param{Name: name, W: mat.New(rows, cols), G: mat.New(rows, cols)}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { p.G.Zero() }

// Shadow returns a parameter that shares p's weight storage but owns a
// fresh, zeroed gradient accumulator. Data-parallel workers accumulate
// into shadows and the trainer reduces them into the base gradients in
// shard order; only base parameters are ever stepped by an optimizer.
func (p *Param) Shadow() *Param {
	return &Param{Name: p.Name, W: p.W, G: mat.New(p.G.Rows, p.G.Cols)}
}

// ZeroGrads clears every gradient in the set.
func ZeroGrads(ps []*Param) {
	for _, p := range ps {
		p.ZeroGrad()
	}
}

// NumParams returns the total number of scalar parameters in the set.
func NumParams(ps []*Param) int {
	n := 0
	for _, p := range ps {
		n += len(p.W.Data)
	}
	return n
}

// ClipGrads scales all gradients down so their global L2 norm is at most
// maxNorm; a no-op when already within bounds or maxNorm <= 0. Returns the
// pre-clip norm. Gradient clipping keeps BPTT stable on noisy (sanitised)
// training series.
func ClipGrads(ps []*Param, maxNorm float64) float64 {
	var ss float64
	for _, p := range ps {
		for _, g := range p.G.Data {
			ss += g * g
		}
	}
	norm := math.Sqrt(ss)
	if maxNorm <= 0 || norm <= maxNorm || norm == 0 {
		return norm
	}
	scale := maxNorm / norm
	for _, p := range ps {
		for i := range p.G.Data {
			p.G.Data[i] *= scale
		}
	}
	return norm
}

// CheckFinite returns an error naming the first parameter containing a NaN
// or Inf weight — a guard against divergent training runs.
func CheckFinite(ps []*Param) error {
	for _, p := range ps {
		for _, w := range p.W.Data {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				return fmt.Errorf("nn: parameter %q contains non-finite weight", p.Name)
			}
		}
	}
	return nil
}

// Activation derivatives shared by the cells. The activations themselves
// are mat.SigmoidTo and mat.TanhTo.

// dTanhFromOutput returns the derivative tanh'(z) given y = tanh(z).
func dTanhFromOutput(y float64) float64 { return 1 - y*y }

// dSigmoidFromOutput returns σ'(z) given y = σ(z).
func dSigmoidFromOutput(y float64) float64 { return y * (1 - y) }

func relu(x float64) float64 {
	if x > 0 {
		return x
	}
	return 0
}
