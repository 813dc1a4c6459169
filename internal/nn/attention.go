package nn

import (
	"math"
	"math/rand"

	"repro/internal/mat"
)

// SelfAttention is single-head scaled dot-product self-attention over a
// sequence of n embedding vectors: Q = X·Wqᵀ, K = X·Wkᵀ, V = X·Wvᵀ,
// Y = softmax(QKᵀ/√d)·V. Input and output are n x Dim matrices.
type SelfAttention struct {
	Dim        int
	Wq, Wk, Wv *Param // Dim x Dim

	ar    *arena // per-pass storage when owned by a model; nil standalone
	cache attnCache
}

func (a *SelfAttention) setArena(ar *arena) { a.ar = ar }
func (a *SelfAttention) resetScratch()      {}

// NewSelfAttention creates a single-head attention layer.
func NewSelfAttention(name string, dim int, rng *rand.Rand) *SelfAttention {
	mk := func(suffix string) *Param {
		p := NewParam(name+suffix, dim, dim)
		p.W.GlorotUniform(rng, dim, dim)
		return p
	}
	return &SelfAttention{Dim: dim, Wq: mk(".Wq"), Wk: mk(".Wk"), Wv: mk(".Wv")}
}

// Params returns the layer's trainable parameters.
func (a *SelfAttention) Params() []*Param { return []*Param{a.Wq, a.Wk, a.Wv} }

type attnCache struct {
	x       *mat.Matrix // n x d input
	q, k, v *mat.Matrix // n x d
	attn    *mat.Matrix // n x n softmax rows
}

// Forward computes attention over the sequence x (n rows of Dim features).
func (a *SelfAttention) Forward(x *mat.Matrix) (*mat.Matrix, *attnCache) {
	if x.Cols != a.Dim {
		panic("nn: attention input dim mismatch")
	}
	n := x.Rows
	var c *attnCache
	if a.ar != nil {
		c = &a.cache
	} else {
		c = &attnCache{}
	}
	c.x = x
	c.q, c.k, c.v = arenaMatrix(a.ar, n, a.Dim), arenaMatrix(a.ar, n, a.Dim), arenaMatrix(a.ar, n, a.Dim)
	c.attn = arenaMatrix(a.ar, n, n)
	y := arenaMatrix(a.ar, n, a.Dim)
	a.attend(c, arenaMatrix(a.ar, n, n), y)
	return y, c
}

// attend is the layer's arithmetic: it fills c.q, c.k, c.v and c.attn from
// c.x and writes Y into y, using scores (n x n) as scratch.
func (a *SelfAttention) attend(c *attnCache, scores, y *mat.Matrix) {
	for t := 0; t < c.x.Rows; t++ {
		a.project(c.q.Row(t), c.k.Row(t), c.v.Row(t), c.x.Row(t))
	}
	mat.MulBTTo(scores, c.q, c.k)
	scale := a.scale()
	for i := range scores.Data {
		scores.Data[i] *= scale
	}
	mix(c.attn, y, scores, c.v)
}

// project writes one row of Q, K and V for the input row x. Each element
// is W's row i dotted with x in increasing k, which is bit for bit the
// (t, i) element of X·Wᵀ (a*b commutes exactly), and it depends on that
// one input row alone.
func (a *SelfAttention) project(q, k, v, x []float64) {
	a.Wq.W.MulVecTo(q, x)
	a.Wk.W.MulVecTo(k, x)
	a.Wv.W.MulVecTo(v, x)
}

// scale is the 1/√d factor applied to every raw score.
func (a *SelfAttention) scale() float64 { return 1 / math.Sqrt(float64(a.Dim)) }

// mix turns each row of the scaled scores into softmax weights in attn and
// returns y = attn·V.
func mix(attn, y, scores, v *mat.Matrix) {
	for i := 0; i < scores.Rows; i++ {
		mat.Softmax(attn.Row(i), scores.Row(i))
	}
	y.Mul(attn, v)
}

// Backward accumulates parameter gradients given dL/dY and returns dL/dX.
func (a *SelfAttention) Backward(c *attnCache, dy *mat.Matrix) *mat.Matrix {
	n := c.x.Rows
	d := a.Dim
	scale := a.scale()

	// Y = A·V: dA = dY·Vᵀ, dV = Aᵀ·dY.
	dA := mat.MulBTTo(arenaMatrix(a.ar, n, n), dy, c.v)
	dV := mat.MulATTo(arenaMatrix(a.ar, n, d), c.attn, dy)

	// Softmax backward row-wise: dS_ij = A_ij(dA_ij - Σ_k dA_ik A_ik).
	dS := arenaMatrix(a.ar, n, n)
	for i := 0; i < n; i++ {
		arow := c.attn.Row(i)
		darow := dA.Row(i)
		var dot float64
		for j := range arow {
			dot += darow[j] * arow[j]
		}
		dsrow := dS.Row(i)
		for j := range arow {
			dsrow[j] = arow[j] * (darow[j] - dot) * scale
		}
	}

	// S = Q·Kᵀ (pre-scale): dQ = dS·K, dK = dSᵀ·Q.
	dQ := arenaMatrix(a.ar, n, d).Mul(dS, c.k)
	dK := mat.MulATTo(arenaMatrix(a.ar, n, d), dS, c.q)

	// Q = X·Wqᵀ: dWq = dQᵀ·X, dX += dQ·Wq; same for K, V. The gradient
	// additions stay two-step (compute product, then Add) so the sums are
	// bit-identical to the historical code.
	dW := arenaMatrix(a.ar, d, d)
	a.Wq.G.Add(a.Wq.G, mat.MulATTo(dW, dQ, c.x))
	a.Wk.G.Add(a.Wk.G, mat.MulATTo(dW, dK, c.x))
	a.Wv.G.Add(a.Wv.G, mat.MulATTo(dW, dV, c.x))

	dx := arenaMatrix(a.ar, n, d).Mul(dQ, a.Wq.W)
	t := arenaMatrix(a.ar, n, d)
	dx.Add(dx, t.Mul(dK, a.Wk.W))
	dx.Add(dx, t.Mul(dV, a.Wv.W))
	return dx
}

// LayerNorm normalises each row of a sequence matrix to zero mean and unit
// variance, then applies a learned affine map.
type LayerNorm struct {
	Dim   int
	Gamma *Param // 1 x Dim
	Beta  *Param // 1 x Dim

	ar    *arena // per-pass storage when owned by a model; nil standalone
	cache lnCache
	dxh   []float64 // per-row backward scratch, dead after each row
}

func (l *LayerNorm) setArena(ar *arena) { l.ar = ar }
func (l *LayerNorm) resetScratch()      {}

// NewLayerNorm creates a layer-norm with gamma=1, beta=0.
func NewLayerNorm(name string, dim int) *LayerNorm {
	ln := &LayerNorm{Dim: dim, Gamma: NewParam(name+".gamma", 1, dim), Beta: NewParam(name+".beta", 1, dim)}
	ln.Gamma.W.Fill(1)
	return ln
}

// Params returns the layer's trainable parameters.
func (l *LayerNorm) Params() []*Param { return []*Param{l.Gamma, l.Beta} }

const lnEps = 1e-5

type lnCache struct {
	xhat   *mat.Matrix
	invStd []float64
}

// Forward normalises each row of x.
func (l *LayerNorm) Forward(x *mat.Matrix) (*mat.Matrix, *lnCache) {
	if x.Cols != l.Dim {
		panic("nn: layernorm dim mismatch")
	}
	n := x.Rows
	y := arenaMatrix(l.ar, n, l.Dim)
	var c *lnCache
	if l.ar != nil {
		c = &l.cache
	} else {
		c = &lnCache{}
	}
	c.xhat = arenaMatrix(l.ar, n, l.Dim)
	c.invStd = arenaAlloc(l.ar, n)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		mean := mat.Mean(row)
		variance := mat.Variance(row)
		inv := 1 / math.Sqrt(variance+lnEps)
		c.invStd[i] = inv
		xh := c.xhat.Row(i)
		out := y.Row(i)
		for j, v := range row {
			xh[j] = (v - mean) * inv
			out[j] = xh[j]*l.Gamma.W.Data[j] + l.Beta.W.Data[j]
		}
	}
	return y, c
}

// Backward accumulates gamma/beta gradients and returns dL/dX.
func (l *LayerNorm) Backward(c *lnCache, dy *mat.Matrix) *mat.Matrix {
	n := dy.Rows
	d := float64(l.Dim)
	dx := arenaMatrix(l.ar, n, l.Dim)
	if l.dxh == nil {
		l.dxh = make([]float64, l.Dim)
	}
	for i := 0; i < n; i++ {
		dyr := dy.Row(i)
		xh := c.xhat.Row(i)
		// Parameter gradients.
		for j := range dyr {
			l.Gamma.G.Data[j] += dyr[j] * xh[j]
			l.Beta.G.Data[j] += dyr[j]
		}
		// dxhat = dy * gamma, in per-layer scratch (dead after this row).
		dxh := l.dxh
		var sumDxh, sumDxhXh float64
		for j := range dyr {
			dxh[j] = dyr[j] * l.Gamma.W.Data[j]
			sumDxh += dxh[j]
			sumDxhXh += dxh[j] * xh[j]
		}
		inv := c.invStd[i]
		out := dx.Row(i)
		for j := range dyr {
			out[j] = inv * (dxh[j] - sumDxh/d - xh[j]*sumDxhXh/d)
		}
	}
	return dx
}
