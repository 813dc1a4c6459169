package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/mat"
)

// Model is a sequence regressor: it maps a window of ws readings — plus an
// optional context vector of side features held constant across the window
// (STPT passes the source neighbourhood's location and spatial scale) — to
// a prediction of the next reading. Forward returns an opaque cache that
// Backward consumes to accumulate parameter gradients.
type Model interface {
	Name() string
	WindowSize() int
	CtxSize() int
	Params() []*Param
	Forward(window, ctx []float64) (pred float64, cache any)
	Backward(cache any, dPred float64)
}

// Predict returns the model's prediction for one window: its Forward,
// one sequence at a time. On one model instance, Predict reuses the
// storage of the previous Forward, Predict or Rollout, like Forward itself.
func Predict(m Model, window, ctx []float64) float64 {
	p, _ := m.Forward(window, ctx)
	return p
}

// checkInputs validates window/ctx shapes and returns the context the
// model reads: nil for a context-free model, and zeros when the model
// expects a context but none was given.
func checkInputs(m Model, zeros, window, ctx []float64) []float64 {
	if len(window) != m.WindowSize() {
		panic(fmt.Sprintf("nn: window length %d, want %d", len(window), m.WindowSize()))
	}
	if m.CtxSize() == 0 {
		return nil
	}
	if ctx == nil {
		return zeros
	}
	if len(ctx) != m.CtxSize() {
		panic(fmt.Sprintf("nn: ctx length %d, want %d", len(ctx), m.CtxSize()))
	}
	return ctx
}

// stepInput builds the per-timestep input vector [value, ctx...] in arena
// storage (each timestep's input is kept alive by the layer caches, so it
// must live for the whole pass).
func stepInput(ar *arena, v float64, ctx []float64) []float64 {
	in := ar.alloc(1 + len(ctx))
	in[0] = v
	copy(in[1:], ctx)
	return in
}

// modelArena bundles the pass-scoped allocator shared by a model and its
// layers. Every model embeds one; ShadowClone gives each clone its own, so
// worker goroutines never share scratch.
type modelArena struct {
	ar    *arena
	users []arenaUser
	dPred [1]float64 // head-gradient scratch, avoids a []float64{dPred} per Backward
	zeros []float64  // the context read when a caller passes none; never written
}

// wire attaches a fresh arena to every layer and sizes the zero context.
func (m *modelArena) wire(ctxDim int, layers ...arenaUser) {
	m.ar = &arena{}
	m.users = layers
	m.zeros = make([]float64, ctxDim)
	for _, u := range layers {
		u.setArena(m.ar)
	}
}

// beginPass rewinds the arena and every layer's per-pass cache pool. Called
// at the top of each Forward; scratch handed out during the previous
// forward/backward pass becomes invalid here.
func (m *modelArena) beginPass() {
	m.ar.reset()
	for _, u := range m.users {
		u.resetScratch()
	}
}

// ---------------------------------------------------------------------------
// RecurrentModel: [value, ctx] → embedding → recurrent cell → linear head.

// RecurrentModel wraps any RecurrentCell into a next-value regressor.
type RecurrentModel struct {
	name  string
	ws    int
	ctx   int
	embed *Dense
	cell  RecurrentCell
	head  *Dense

	modelArena
	cache recurrentCache
}

// NewRecurrentModel builds embed(1+ctxDim→embedDim, tanh) → cell → head(H→1).
func NewRecurrentModel(name string, ws, ctxDim, embedDim int, cell RecurrentCell, rng *rand.Rand) *RecurrentModel {
	if cell.InputSize() != embedDim {
		panic(fmt.Sprintf("nn: cell input %d != embed dim %d", cell.InputSize(), embedDim))
	}
	m := &RecurrentModel{
		name:  name,
		ws:    ws,
		ctx:   ctxDim,
		embed: newDense(name+".embed", 1+ctxDim, embedDim, Tanh, rng),
		cell:  cell,
		head:  newDense(name+".head", cell.OutputSize(), 1, Linear, rng),
	}
	m.wire(ctxDim, m.embed, m.cell, m.head)
	return m
}

// Name returns the model's name.
func (m *RecurrentModel) Name() string { return m.name }

// WindowSize returns the expected input window length.
func (m *RecurrentModel) WindowSize() int { return m.ws }

// CtxSize returns the expected context vector length.
func (m *RecurrentModel) CtxSize() int { return m.ctx }

// Params returns all trainable parameters.
func (m *RecurrentModel) Params() []*Param {
	ps := append([]*Param{}, m.embed.Params()...)
	ps = append(ps, m.cell.Params()...)
	return append(ps, m.head.Params()...)
}

type recurrentCache struct {
	embedCaches []*denseCache
	cellCaches  []any
	headCache   *denseCache
}

// Forward runs the window through the recurrent stack. The returned cache
// (like all scratch handed out during the pass) is valid until the next
// Forward on this instance.
func (m *RecurrentModel) Forward(window, ctx []float64) (float64, any) {
	m.beginPass()
	ctx = checkInputs(m, m.zeros, window, ctx)
	c := &m.cache
	c.embedCaches = c.embedCaches[:0]
	c.cellCaches = c.cellCaches[:0]
	state := m.ar.alloc(m.cell.StateSize())
	for _, v := range window {
		e, ec := m.embed.Forward(stepInput(m.ar, v, ctx))
		c.embedCaches = append(c.embedCaches, ec)
		var sc any
		state, sc = m.cell.Step(e, state)
		c.cellCaches = append(c.cellCaches, sc)
	}
	out, hc := m.head.Forward(state[:m.cell.OutputSize()])
	c.headCache = hc
	return out[0], c
}

// Backward backpropagates through time, accumulating gradients.
func (m *RecurrentModel) Backward(cache any, dPred float64) { m.backward(cache, dPred, false) }

// backward is Backward; with wantH0 unset the first step skips dL/dh₀,
// which nothing reads.
func (m *RecurrentModel) backward(cache any, dPred float64, wantH0 bool) {
	c := cache.(*recurrentCache)
	m.dPred[0] = dPred
	dh := m.head.Backward(c.headCache, m.dPred[:])
	dState := m.ar.alloc(m.cell.StateSize())
	copy(dState[:m.cell.OutputSize()], dh)
	for t := len(c.cellCaches) - 1; t >= 0; t-- {
		dx, dPrev := m.cell.stepBackward(c.cellCaches[t], dState, t > 0 || wantH0)
		m.embed.accumulate(c.embedCaches[t], dx)
		dState = dPrev
	}
}

// ---------------------------------------------------------------------------
// AttentiveGRUModel: the paper's RNN unit (Appendix C) — embeddings,
// single-head self-attention across the window, GRU over the attended
// sequence, linear head on the final hidden state.

// AttentiveGRUModel is the default STPT pattern-recognition network.
type AttentiveGRUModel struct {
	name  string
	ws    int
	ctx   int
	embed *Dense
	attn  *SelfAttention
	cell  *GRUCell
	head  *Dense

	modelArena
	blk attnBlock // the block pass's state (block.go)
}

// NewAttentiveGRUModel builds the attention+GRU regressor.
func NewAttentiveGRUModel(name string, ws, ctxDim, embedDim, hidden int, rng *rand.Rand) *AttentiveGRUModel {
	m := &AttentiveGRUModel{
		name:  name,
		ws:    ws,
		ctx:   ctxDim,
		embed: newDense(name+".embed", 1+ctxDim, embedDim, Tanh, rng),
		attn:  newSelfAttention(name+".attn", embedDim, rng),
		cell:  NewGRUCell(name+".gru", embedDim, hidden, rng),
		head:  newDense(name+".head", hidden, 1, Linear, rng),
	}
	m.wire(ctxDim, m.embed, m.attn, m.cell, m.head)
	return m
}

// Name returns the model's name.
func (m *AttentiveGRUModel) Name() string { return m.name }

// WindowSize returns the expected input window length.
func (m *AttentiveGRUModel) WindowSize() int { return m.ws }

// CtxSize returns the expected context vector length.
func (m *AttentiveGRUModel) CtxSize() int { return m.ctx }

// Params returns all trainable parameters.
func (m *AttentiveGRUModel) Params() []*Param {
	ps := append([]*Param{}, m.embed.Params()...)
	ps = append(ps, m.attn.Params()...)
	ps = append(ps, m.cell.Params()...)
	return append(ps, m.head.Params()...)
}

// Forward runs the window through embed → attention → GRU → head: the
// one-sequence case of the block pass. The returned cache is valid until
// the next Forward on this instance.
func (m *AttentiveGRUModel) Forward(window, ctx []float64) (float64, any) {
	k := m.begin(1)
	m.fill(k, 0, window, ctx)
	m.forward(k)
	return k.out.Data[0], k
}

// Backward backpropagates through the full stack: the one-sequence case
// of the block pass. It adds the sequence's gradient, each weight's
// summed from +0, to the parameters.
func (m *AttentiveGRUModel) Backward(cache any, dPred float64) { m.backward(cache, dPred, false) }

// backward is Backward; with wantH0 unset the first GRU step skips dL/dh₀,
// which nothing reads.
func (m *AttentiveGRUModel) backward(cache any, dPred float64, wantH0 bool) {
	k := cache.(*attnBlock)
	k.dPred[0] = dPred
	m.backprop(k, wantH0)
}

// ---------------------------------------------------------------------------
// TransformerModel: embed + sinusoidal positions → encoder block
// (attention + residual + LN, FFN + residual + LN) → mean pool → head.

// TransformerModel is the transformer variant of Figure 8(i).
type TransformerModel struct {
	name  string
	ws    int
	ctx   int
	embed *Dense
	pos   *mat.Matrix // ws x dim sinusoidal encodings, fixed
	attn  *SelfAttention
	ln1   *LayerNorm
	ffn1  *Dense
	ffn2  *Dense
	ln2   *LayerNorm
	head  *Dense

	modelArena
	cache transformerCache
}

// NewTransformerModel builds a one-block transformer encoder regressor.
func NewTransformerModel(name string, ws, ctxDim, dim, ffnDim int, rng *rand.Rand) *TransformerModel {
	m := &TransformerModel{
		name:  name,
		ws:    ws,
		ctx:   ctxDim,
		embed: newDense(name+".embed", 1+ctxDim, dim, Tanh, rng),
		pos:   mat.New(ws, dim),
		attn:  newSelfAttention(name+".attn", dim, rng),
		ln1:   newLayerNorm(name+".ln1", dim),
		ffn1:  newDense(name+".ffn1", dim, ffnDim, ReLU, rng),
		ffn2:  newDense(name+".ffn2", ffnDim, dim, Linear, rng),
		ln2:   newLayerNorm(name+".ln2", dim),
		head:  newDense(name+".head", dim, 1, Linear, rng),
	}
	for t := 0; t < ws; t++ {
		for j := 0; j < dim; j++ {
			angle := float64(t) / math.Pow(10000, 2*float64(j/2)/float64(dim))
			if j%2 == 0 {
				m.pos.Set(t, j, math.Sin(angle))
			} else {
				m.pos.Set(t, j, math.Cos(angle))
			}
		}
	}
	m.wire(ctxDim, m.embed, m.attn, m.ln1, m.ffn1, m.ffn2, m.ln2, m.head)
	return m
}

// Name returns the model's name.
func (m *TransformerModel) Name() string { return m.name }

// WindowSize returns the expected input window length.
func (m *TransformerModel) WindowSize() int { return m.ws }

// CtxSize returns the expected context vector length.
func (m *TransformerModel) CtxSize() int { return m.ctx }

// Params returns all trainable parameters.
func (m *TransformerModel) Params() []*Param {
	ps := append([]*Param{}, m.embed.Params()...)
	ps = append(ps, m.attn.Params()...)
	ps = append(ps, m.ln1.Params()...)
	ps = append(ps, m.ffn1.Params()...)
	ps = append(ps, m.ffn2.Params()...)
	ps = append(ps, m.ln2.Params()...)
	return append(ps, m.head.Params()...)
}

type transformerCache struct {
	embedCaches []*denseCache
	attnCache   *attnCache
	ln1Cache    *lnCache
	ffn1Caches  []*denseCache
	ffn2Caches  []*denseCache
	ln2Cache    *lnCache
	headCache   *denseCache
}

// Forward runs the window through the encoder block. The returned cache is
// valid until the next Forward on this instance.
func (m *TransformerModel) Forward(window, ctx []float64) (float64, any) {
	m.beginPass()
	ctx = checkInputs(m, m.zeros, window, ctx)
	dim := m.embed.Out
	c := &m.cache
	c.embedCaches = c.embedCaches[:0]
	c.ffn1Caches = c.ffn1Caches[:0]
	c.ffn2Caches = c.ffn2Caches[:0]
	seq := m.ar.matrix(m.ws, dim)
	for t, v := range window {
		e, ec := m.embed.Forward(stepInput(m.ar, v, ctx))
		c.embedCaches = append(c.embedCaches, ec)
		row := seq.Row(t)
		copy(row, e)
		mat.AddVec(row, row, m.pos.Row(t))
	}
	att, ac := m.attn.Forward(seq)
	c.attnCache = ac
	res1 := m.ar.matrix(m.ws, dim).Add(seq, att)
	n1, l1c := m.ln1.Forward(res1)
	c.ln1Cache = l1c
	ffnOut := m.ar.matrix(m.ws, dim)
	for t := 0; t < m.ws; t++ {
		h1, c1 := m.ffn1.Forward(n1.Row(t))
		h2, c2 := m.ffn2.Forward(h1)
		c.ffn1Caches = append(c.ffn1Caches, c1)
		c.ffn2Caches = append(c.ffn2Caches, c2)
		copy(ffnOut.Row(t), h2)
	}
	res2 := m.ar.matrix(m.ws, dim).Add(n1, ffnOut)
	n2, l2c := m.ln2.Forward(res2)
	c.ln2Cache = l2c
	// Mean pool over time.
	pooled := m.ar.alloc(dim)
	for t := 0; t < m.ws; t++ {
		mat.AxpyVec(pooled, 1/float64(m.ws), n2.Row(t))
	}
	out, hc := m.head.Forward(pooled)
	c.headCache = hc
	return out[0], c
}

// Backward backpropagates through the encoder block.
func (m *TransformerModel) Backward(cache any, dPred float64) {
	c := cache.(*transformerCache)
	dim := m.embed.Out
	m.dPred[0] = dPred
	dPooled := m.head.Backward(c.headCache, m.dPred[:])
	dN2 := m.ar.matrix(m.ws, dim)
	for t := 0; t < m.ws; t++ {
		mat.ScaleVec(dN2.Row(t), 1/float64(m.ws), dPooled)
	}
	dRes2 := m.ln2.Backward(c.ln2Cache, dN2)
	// res2 = n1 + ffn(n1): gradient flows both ways.
	dN1 := m.ar.matrix(m.ws, dim)
	dN1.CopyFrom(dRes2)
	for t := 0; t < m.ws; t++ {
		dh1 := m.ffn2.Backward(c.ffn2Caches[t], dRes2.Row(t))
		dn1t := m.ffn1.Backward(c.ffn1Caches[t], dh1)
		mat.AxpyVec(dN1.Row(t), 1, dn1t)
	}
	dRes1 := m.ln1.Backward(c.ln1Cache, dN1)
	// res1 = seq + attn(seq).
	dSeq := m.ar.matrix(m.ws, dim)
	dSeq.CopyFrom(dRes1)
	dFromAttn := m.attn.Backward(c.attnCache, dRes1)
	dSeq.Add(dSeq, dFromAttn)
	for t := m.ws - 1; t >= 0; t-- {
		m.embed.accumulate(c.embedCaches[t], dSeq.Row(t))
	}
}
