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

	// wt is W's transpose, taken by transposeW for the block products of
	// a lockstep pass. Each instance owns its own (Shadow starts without
	// one), so workers sharing W never share it.
	wt mat.Matrix
}

// transposeW sets p.wt to W's transpose. The weights stay fixed for the
// duration of a block call, so it takes the transpose once per call.
func (p *Param) transposeW() {
	w := p.W
	if p.wt.Data == nil {
		p.wt = mat.Matrix{Rows: w.Cols, Cols: w.Rows, Data: make([]float64, len(w.Data))}
	}
	for i := 0; i < w.Rows; i++ {
		for j, v := range w.Row(i) {
			p.wt.Data[j*w.Rows+i] = v
		}
	}
}

// mulWT sets out = x·Wᵀ, one output row per row of x. With block set it
// is one Mul against the transpose transposeW took; without, one W·x per
// row, which needs no transpose. Both sum each output from +0 in
// increasing k (a*b commutes exactly), so they give the same bits.
func mulWT(out, x *mat.Matrix, p *Param, block bool) {
	if block {
		out.Mul(x, &p.wt)
		return
	}
	for i := 0; i < x.Rows; i++ {
		p.W.MulVecTo(out.Row(i), x.Row(i))
	}
}

// addGrad adds the outer products of the rows of d and x, in row order,
// to p.G as one product: p.G += dᵀ·x, the sum taken in prod (p.G's
// shape) from +0 in increasing row. When p.G is zero, as at the start of
// every training batch, that gives the bits AddOuter gives adding the
// rows one at a time: both add the same terms in the same order, and an
// accumulator that starts at +0 never becomes −0, so AddOuter's skip of
// an exactly zero row, which adds ±0 terms, changes no bit (DESIGN §13).
func (p *Param) addGrad(prod, d, x *mat.Matrix) {
	p.G.Add(p.G, mat.MulATTo(prod, d, x))
}

// addBiasGrad adds each row of d to p.G in turn: the sums AxpyVec(G, 1,
// row) takes one row at a time, since 1·a is a.
func (p *Param) addBiasGrad(d *mat.Matrix) {
	for i := 0; i < d.Rows; i++ {
		mat.AddVec(p.G.Data, p.G.Data, d.Row(i))
	}
}

// addBias adds the bias row b to every row of z.
func addBias(z *mat.Matrix, b *Param) {
	for i := 0; i < z.Rows; i++ {
		row := z.Row(i)
		mat.AddVec(row, row, b.W.Data)
	}
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
