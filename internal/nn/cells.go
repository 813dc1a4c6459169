package nn

import (
	"math/rand"

	"repro/internal/mat"
)

// RecurrentCell is a stateful sequence cell stepped once per timestep. The
// full state is a flat vector; its first OutputSize elements are the
// externally visible hidden output h (for LSTM the remainder is the cell
// state c). A cell runs inside a model (NewRecurrentModel), on the
// model's arena.
type RecurrentCell interface {
	arenaUser
	InputSize() int
	StateSize() int
	OutputSize() int
	// Step consumes input x and previous state, returning the new state
	// and an opaque cache for StepBackward.
	Step(x, state []float64) (newState []float64, cache any)
	// StepBackward consumes dL/d(newState) and accumulates parameter
	// gradients, returning dL/dx and dL/d(prevState).
	StepBackward(cache any, dNewState []float64) (dx, dPrevState []float64)
	// stepBackward is StepBackward; with wantPrev unset it skips
	// dL/d(prevState) and returns nil for it, for the first timestep,
	// whose initial state nothing trains.
	stepBackward(cache any, dNewState []float64, wantPrev bool) (dx, dPrevState []float64)
	Params() []*Param
	// shadow returns a clone sharing the cell's weights but owning fresh
	// gradients and scratch, for a worker's ShadowClone.
	shadow() RecurrentCell
}

// ZeroState returns an all-zero initial state for the cell.
func ZeroState(c RecurrentCell) []float64 { return make([]float64, c.StateSize()) }

// ---------------------------------------------------------------------------
// Elman RNN: h' = tanh(Wx·x + Wh·h + b)

// RNNCell is the vanilla (Elman) recurrent cell — the paper's base model.
// Like every cell, an instance owns reusable scratch and must be stepped
// from one goroutine at a time (workers use shadow clones).
type RNNCell struct {
	in, hidden int
	Wx, Wh, B  *Param
	pre, tmp   []float64 // pre-activation scratch, dead after each Step

	ar     *arena // the owning model's per-pass storage
	caches pool[rnnCache]
}

func (c *RNNCell) setArena(a *arena) { c.ar = a }
func (c *RNNCell) resetScratch()     { c.caches.reset() }

// NewRNNCell creates an Elman cell with Glorot weights and a near-identity
// recurrent matrix scale, to run inside a model (NewRecurrentModel).
func NewRNNCell(name string, in, hidden int, rng *rand.Rand) *RNNCell {
	c := &RNNCell{in: in, hidden: hidden,
		Wx: NewParam(name+".Wx", hidden, in),
		Wh: NewParam(name+".Wh", hidden, hidden),
		B:  NewParam(name+".b", 1, hidden),
	}
	c.Wx.W.GlorotUniform(rng, in, hidden)
	c.Wh.W.GlorotUniform(rng, hidden, hidden)
	return c
}

func (c *RNNCell) InputSize() int  { return c.in }
func (c *RNNCell) StateSize() int  { return c.hidden }
func (c *RNNCell) OutputSize() int { return c.hidden }
func (c *RNNCell) Params() []*Param {
	return []*Param{c.Wx, c.Wh, c.B}
}

type rnnCache struct {
	x, hPrev, hNew []float64
}

// Step advances the cell one timestep.
func (c *RNNCell) Step(x, state []float64) ([]float64, any) {
	if c.pre == nil {
		c.pre = make([]float64, c.hidden)
		c.tmp = make([]float64, c.hidden)
	}
	c.Wx.W.MulVecTo(c.pre, x)
	c.Wh.W.MulVecTo(c.tmp, state)
	mat.AddVec(c.pre, c.pre, c.tmp)
	mat.AddVec(c.pre, c.pre, c.B.W.Data)
	h := c.ar.alloc(c.hidden)
	mat.TanhTo(h, c.pre)
	cc := c.caches.next()
	cc.x, cc.hPrev, cc.hNew = x, state, h
	return h, cc
}

// shadow returns a clone sharing weights with c but owning fresh gradient
// and scratch buffers.
func (c *RNNCell) shadow() RecurrentCell {
	return &RNNCell{in: c.in, hidden: c.hidden, Wx: c.Wx.Shadow(), Wh: c.Wh.Shadow(), B: c.B.Shadow()}
}

// StepBackward backpropagates one timestep.
func (c *RNNCell) StepBackward(cache any, dh []float64) (dx, dhPrev []float64) {
	return c.stepBackward(cache, dh, true)
}

func (c *RNNCell) stepBackward(cache any, dh []float64, wantPrev bool) (dx, dhPrev []float64) {
	cc := cache.(*rnnCache)
	da := c.ar.alloc(c.hidden)
	for i := range da {
		da[i] = dh[i] * dTanhFromOutput(cc.hNew[i])
	}
	c.Wx.G.AddOuter(da, cc.x)
	c.Wh.G.AddOuter(da, cc.hPrev)
	mat.AxpyVec(c.B.G.Data, 1, da)
	dx = c.ar.tmulVec(c.Wx.W, da)
	if wantPrev {
		dhPrev = c.ar.tmulVec(c.Wh.W, da)
	}
	return dx, dhPrev
}

// ---------------------------------------------------------------------------
// GRU: z = σ(Wz·x + Uz·h + bz), r = σ(Wr·x + Ur·h + br),
//      c̃ = tanh(Wc·x + Uc·(r∘h) + bc), h' = (1-z)∘h + z∘c̃

// GRUCell is a gated recurrent unit.
type GRUCell struct {
	in, hidden             int
	Wz, Uz, Bz, Wr, Ur, Br *Param
	Wc, Uc, Bc             *Param
	pre, tmp               []float64 // pre-activation scratch, dead after each Step

	ar      *arena // the owning model's per-pass storage
	caches  pool[gruCache]
	scratch gruCache // stepInfer's reused gate vectors
}

func (c *GRUCell) setArena(a *arena) { c.ar = a }
func (c *GRUCell) resetScratch()     { c.caches.reset() }

// NewGRUCell creates a GRU cell with Glorot weights, to run inside a model
// (NewRecurrentModel).
func NewGRUCell(name string, in, hidden int, rng *rand.Rand) *GRUCell {
	mk := func(suffix string, rows, cols, fanIn, fanOut int) *Param {
		p := NewParam(name+suffix, rows, cols)
		p.W.GlorotUniform(rng, fanIn, fanOut)
		return p
	}
	return &GRUCell{in: in, hidden: hidden,
		Wz: mk(".Wz", hidden, in, in, hidden), Uz: mk(".Uz", hidden, hidden, hidden, hidden), Bz: NewParam(name+".bz", 1, hidden),
		Wr: mk(".Wr", hidden, in, in, hidden), Ur: mk(".Ur", hidden, hidden, hidden, hidden), Br: NewParam(name+".br", 1, hidden),
		Wc: mk(".Wc", hidden, in, in, hidden), Uc: mk(".Uc", hidden, hidden, hidden, hidden), Bc: NewParam(name+".bc", 1, hidden),
	}
}

func (c *GRUCell) InputSize() int  { return c.in }
func (c *GRUCell) StateSize() int  { return c.hidden }
func (c *GRUCell) OutputSize() int { return c.hidden }
func (c *GRUCell) Params() []*Param {
	return []*Param{c.Wz, c.Uz, c.Bz, c.Wr, c.Ur, c.Br, c.Wc, c.Uc, c.Bc}
}

type gruCache struct {
	x, hPrev       []float64
	z, r, cand, rh []float64
}

// Step advances the cell one timestep.
func (c *GRUCell) Step(x, state []float64) ([]float64, any) {
	n := c.hidden
	// The per-step vectors z, r, rh, cand, hNew outlive this call via the
	// cache (BPTT keeps every timestep), so they come from one slab; only
	// the gate pre-activations are reusable scratch.
	slab := c.ar.alloc(5 * n)
	cc := c.caches.next()
	cc.x, cc.hPrev = x, state
	cc.z, cc.r, cc.rh, cc.cand = slab[0:n:n], slab[n:2*n:2*n], slab[2*n:3*n:3*n], slab[3*n:4*n:4*n]
	hNew := slab[4*n:]
	c.step(cc, hNew)
	return hNew, cc
}

// stepInfer is Step without the cache: it writes the new state into dst
// (len StateSize, aliasing neither x nor state) through gate vectors the
// cell reuses, for inference passes that never run backward.
func (c *GRUCell) stepInfer(x, state, dst []float64) {
	s := &c.scratch
	if s.z == nil {
		n := c.hidden
		slab := make([]float64, 4*n)
		s.z, s.r, s.rh, s.cand = slab[0:n:n], slab[n:2*n:2*n], slab[2*n:3*n:3*n], slab[3*n:]
	}
	s.x, s.hPrev = x, state
	c.step(s, dst)
}

// step is the cell's arithmetic for one timestep: it reads cc.x and
// cc.hPrev, fills cc's gate vectors and writes the new state into hNew.
// Step runs it on a cache it keeps for StepBackward, stepInfer on one
// scratch cache it reuses.
func (c *GRUCell) step(cc *gruCache, hNew []float64) {
	x, h := cc.x, cc.hPrev
	z, r, rh, cand := cc.z, cc.r, cc.rh, cc.cand
	if c.pre == nil {
		c.pre = make([]float64, c.hidden)
		c.tmp = make([]float64, c.hidden)
	}

	c.Wz.W.MulVecTo(c.pre, x)
	c.Uz.W.MulVecTo(c.tmp, h)
	mat.AddVec(c.pre, c.pre, c.tmp)
	mat.AddVec(c.pre, c.pre, c.Bz.W.Data)
	mat.SigmoidTo(z, c.pre)

	c.Wr.W.MulVecTo(c.pre, x)
	c.Ur.W.MulVecTo(c.tmp, h)
	mat.AddVec(c.pre, c.pre, c.tmp)
	mat.AddVec(c.pre, c.pre, c.Br.W.Data)
	mat.SigmoidTo(r, c.pre)

	mat.HadamardVec(rh, r, h)
	c.Wc.W.MulVecTo(c.pre, x)
	c.Uc.W.MulVecTo(c.tmp, rh)
	mat.AddVec(c.pre, c.pre, c.tmp)
	mat.AddVec(c.pre, c.pre, c.Bc.W.Data)
	mat.TanhTo(cand, c.pre)

	for i := range hNew {
		hNew[i] = (1-z[i])*h[i] + z[i]*cand[i]
	}
}

// shadow returns a clone sharing weights with c but owning fresh gradient
// and scratch buffers.
func (c *GRUCell) shadow() RecurrentCell {
	return &GRUCell{in: c.in, hidden: c.hidden,
		Wz: c.Wz.Shadow(), Uz: c.Uz.Shadow(), Bz: c.Bz.Shadow(),
		Wr: c.Wr.Shadow(), Ur: c.Ur.Shadow(), Br: c.Br.Shadow(),
		Wc: c.Wc.Shadow(), Uc: c.Uc.Shadow(), Bc: c.Bc.Shadow(),
	}
}

// StepBackward backpropagates one timestep.
func (c *GRUCell) StepBackward(cache any, dh []float64) (dx, dhPrev []float64) {
	return c.stepBackward(cache, dh, true)
}

func (c *GRUCell) stepBackward(cache any, dh []float64, wantPrev bool) (dx, dhPrev []float64) {
	cc := cache.(*gruCache)
	n := c.hidden
	dz := c.ar.alloc(n)
	dcand := c.ar.alloc(n)
	for i := 0; i < n; i++ {
		dz[i] = dh[i] * (cc.cand[i] - cc.hPrev[i])
		dcand[i] = dh[i] * cc.z[i]
	}
	// Through candidate tanh.
	dcPre := c.ar.alloc(n)
	for i := range dcPre {
		dcPre[i] = dcand[i] * dTanhFromOutput(cc.cand[i])
	}
	c.Wc.G.AddOuter(dcPre, cc.x)
	c.Uc.G.AddOuter(dcPre, cc.rh)
	mat.AxpyVec(c.Bc.G.Data, 1, dcPre)
	drh := c.ar.tmulVec(c.Uc.W, dcPre) // dr needs it even when dhPrev is skipped
	dr := c.ar.alloc(n)
	for i := 0; i < n; i++ {
		dr[i] = drh[i] * cc.hPrev[i]
	}
	// Through gates.
	dzPre := c.ar.alloc(n)
	drPre := c.ar.alloc(n)
	for i := 0; i < n; i++ {
		dzPre[i] = dz[i] * dSigmoidFromOutput(cc.z[i])
		drPre[i] = dr[i] * dSigmoidFromOutput(cc.r[i])
	}
	c.Wz.G.AddOuter(dzPre, cc.x)
	c.Uz.G.AddOuter(dzPre, cc.hPrev)
	mat.AxpyVec(c.Bz.G.Data, 1, dzPre)
	c.Wr.G.AddOuter(drPre, cc.x)
	c.Ur.G.AddOuter(drPre, cc.hPrev)
	mat.AxpyVec(c.Br.G.Data, 1, drPre)

	dx = c.ar.tmulVec(c.Wz.W, dzPre)
	mat.AxpyVec(dx, 1, c.ar.tmulVec(c.Wr.W, drPre))
	mat.AxpyVec(dx, 1, c.ar.tmulVec(c.Wc.W, dcPre))
	if !wantPrev {
		return dx, nil
	}

	dhp := c.ar.alloc(n)
	for i := 0; i < n; i++ {
		dhp[i] = dh[i] * (1 - cc.z[i])
		dhp[i] += drh[i] * cc.r[i]
	}
	mat.AxpyVec(dhp, 1, c.ar.tmulVec(c.Uz.W, dzPre))
	mat.AxpyVec(dhp, 1, c.ar.tmulVec(c.Ur.W, drPre))
	return dx, dhp
}

// ---------------------------------------------------------------------------
// LSTM: i,f,o = σ(...), g = tanh(...), c' = f∘c + i∘g, h' = o∘tanh(c')
// State layout: [h | c] (StateSize = 2H, OutputSize = H).

// LSTMCell is a long short-term memory cell (used by the LGAN-DP baseline).
type LSTMCell struct {
	in, hidden int
	Wi, Ui, Bi *Param
	Wf, Uf, Bf *Param
	Wo, Uo, Bo *Param
	Wg, Ug, Bg *Param
	pre, tmp   []float64 // pre-activation scratch, dead after each Step

	ar     *arena // the owning model's per-pass storage
	caches pool[lstmCache]
}

func (c *LSTMCell) setArena(a *arena) { c.ar = a }
func (c *LSTMCell) resetScratch()     { c.caches.reset() }

// NewLSTMCell creates an LSTM cell with Glorot weights and forget bias 1,
// to run inside a model (NewRecurrentModel).
func NewLSTMCell(name string, in, hidden int, rng *rand.Rand) *LSTMCell {
	mk := func(suffix string, rows, cols, fanIn, fanOut int) *Param {
		p := NewParam(name+suffix, rows, cols)
		p.W.GlorotUniform(rng, fanIn, fanOut)
		return p
	}
	c := &LSTMCell{in: in, hidden: hidden,
		Wi: mk(".Wi", hidden, in, in, hidden), Ui: mk(".Ui", hidden, hidden, hidden, hidden), Bi: NewParam(name+".bi", 1, hidden),
		Wf: mk(".Wf", hidden, in, in, hidden), Uf: mk(".Uf", hidden, hidden, hidden, hidden), Bf: NewParam(name+".bf", 1, hidden),
		Wo: mk(".Wo", hidden, in, in, hidden), Uo: mk(".Uo", hidden, hidden, hidden, hidden), Bo: NewParam(name+".bo", 1, hidden),
		Wg: mk(".Wg", hidden, in, in, hidden), Ug: mk(".Ug", hidden, hidden, hidden, hidden), Bg: NewParam(name+".bg", 1, hidden),
	}
	// Standard trick: start with an open forget gate.
	c.Bf.W.Fill(1)
	return c
}

func (c *LSTMCell) InputSize() int  { return c.in }
func (c *LSTMCell) StateSize() int  { return 2 * c.hidden }
func (c *LSTMCell) OutputSize() int { return c.hidden }
func (c *LSTMCell) Params() []*Param {
	return []*Param{c.Wi, c.Ui, c.Bi, c.Wf, c.Uf, c.Bf, c.Wo, c.Uo, c.Bo, c.Wg, c.Ug, c.Bg}
}

type lstmCache struct {
	x, hPrev, cPrev  []float64
	i, f, o, g, cNew []float64
	tanhC            []float64
}

// Step advances the cell one timestep.
func (c *LSTMCell) Step(x, state []float64) ([]float64, any) {
	n := c.hidden
	h := state[:n]
	cPrev := state[n:]
	if c.pre == nil {
		c.pre = make([]float64, n)
		c.tmp = make([]float64, n)
	}
	// Gate activations and derived vectors are kept by the cache for BPTT:
	// one slab for all six, plus the returned state.
	slab := c.ar.alloc(6 * n)
	i, f, o := slab[0:n:n], slab[n:2*n:2*n], slab[2*n:3*n:3*n]
	g, cNew, tanhC := slab[3*n:4*n:4*n], slab[4*n:5*n:5*n], slab[5*n:]
	gate := func(W, U, B *Param, act func(dst, x []float64), out []float64) {
		W.W.MulVecTo(c.pre, x)
		U.W.MulVecTo(c.tmp, h)
		mat.AddVec(c.pre, c.pre, c.tmp)
		mat.AddVec(c.pre, c.pre, B.W.Data)
		act(out, c.pre)
	}
	gate(c.Wi, c.Ui, c.Bi, mat.SigmoidTo, i)
	gate(c.Wf, c.Uf, c.Bf, mat.SigmoidTo, f)
	gate(c.Wo, c.Uo, c.Bo, mat.SigmoidTo, o)
	gate(c.Wg, c.Ug, c.Bg, mat.TanhTo, g)
	for k := 0; k < n; k++ {
		cNew[k] = f[k]*cPrev[k] + i[k]*g[k]
	}
	mat.TanhTo(tanhC, cNew)
	newState := c.ar.alloc(2 * n)
	mat.HadamardVec(newState[:n], o, tanhC)
	copy(newState[n:], cNew)
	cc := c.caches.next()
	cc.x, cc.hPrev, cc.cPrev = x, h, cPrev
	cc.i, cc.f, cc.o, cc.g, cc.cNew, cc.tanhC = i, f, o, g, cNew, tanhC
	return newState, cc
}

// shadow returns a clone sharing weights with c but owning fresh gradient
// and scratch buffers.
func (c *LSTMCell) shadow() RecurrentCell {
	return &LSTMCell{in: c.in, hidden: c.hidden,
		Wi: c.Wi.Shadow(), Ui: c.Ui.Shadow(), Bi: c.Bi.Shadow(),
		Wf: c.Wf.Shadow(), Uf: c.Uf.Shadow(), Bf: c.Bf.Shadow(),
		Wo: c.Wo.Shadow(), Uo: c.Uo.Shadow(), Bo: c.Bo.Shadow(),
		Wg: c.Wg.Shadow(), Ug: c.Ug.Shadow(), Bg: c.Bg.Shadow(),
	}
}

// StepBackward backpropagates one timestep. dState carries [dh | dc].
func (c *LSTMCell) StepBackward(cache any, dState []float64) (dx, dPrevState []float64) {
	return c.stepBackward(cache, dState, true)
}

func (c *LSTMCell) stepBackward(cache any, dState []float64, wantPrev bool) (dx, dPrevState []float64) {
	cc := cache.(*lstmCache)
	n := c.hidden
	dh := dState[:n]
	dcIn := dState[n:]
	dc := c.ar.alloc(n)
	do := c.ar.alloc(n)
	for k := 0; k < n; k++ {
		do[k] = dh[k] * cc.tanhC[k]
		dc[k] = dcIn[k] + dh[k]*cc.o[k]*dTanhFromOutput(cc.tanhC[k])
	}
	di := c.ar.alloc(n)
	df := c.ar.alloc(n)
	dg := c.ar.alloc(n)
	for k := 0; k < n; k++ {
		di[k] = dc[k] * cc.g[k]
		df[k] = dc[k] * cc.cPrev[k]
		dg[k] = dc[k] * cc.i[k]
	}
	// Pre-activation gradients.
	diPre := c.ar.alloc(n)
	dfPre := c.ar.alloc(n)
	doPre := c.ar.alloc(n)
	dgPre := c.ar.alloc(n)
	for k := 0; k < n; k++ {
		diPre[k] = di[k] * dSigmoidFromOutput(cc.i[k])
		dfPre[k] = df[k] * dSigmoidFromOutput(cc.f[k])
		doPre[k] = do[k] * dSigmoidFromOutput(cc.o[k])
		dgPre[k] = dg[k] * dTanhFromOutput(cc.g[k])
	}
	acc := func(W, U, B *Param, dPre []float64) {
		W.G.AddOuter(dPre, cc.x)
		U.G.AddOuter(dPre, cc.hPrev)
		mat.AxpyVec(B.G.Data, 1, dPre)
	}
	acc(c.Wi, c.Ui, c.Bi, diPre)
	acc(c.Wf, c.Uf, c.Bf, dfPre)
	acc(c.Wo, c.Uo, c.Bo, doPre)
	acc(c.Wg, c.Ug, c.Bg, dgPre)

	dx = c.ar.tmulVec(c.Wi.W, diPre)
	mat.AxpyVec(dx, 1, c.ar.tmulVec(c.Wf.W, dfPre))
	mat.AxpyVec(dx, 1, c.ar.tmulVec(c.Wo.W, doPre))
	mat.AxpyVec(dx, 1, c.ar.tmulVec(c.Wg.W, dgPre))
	if !wantPrev {
		return dx, nil
	}

	dhPrev := c.ar.tmulVec(c.Ui.W, diPre)
	mat.AxpyVec(dhPrev, 1, c.ar.tmulVec(c.Uf.W, dfPre))
	mat.AxpyVec(dhPrev, 1, c.ar.tmulVec(c.Uo.W, doPre))
	mat.AxpyVec(dhPrev, 1, c.ar.tmulVec(c.Ug.W, dgPre))

	dPrevState = c.ar.alloc(2 * n)
	copy(dPrevState[:n], dhPrev)
	for k := 0; k < n; k++ {
		dPrevState[n+k] = dc[k] * cc.f[k]
	}
	return dx, dPrevState
}
