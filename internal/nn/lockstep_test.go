package nn

import (
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/timeseries"
)

// refAttn is the attentive GRU's per-sample forward and backward pass as
// it was before the block pass, kept as the reference the block pass is
// pinned to: one W·x per row and timestep, AddOuter and TMulVecTo per
// timestep, and the reset gate's work at t = 0 done in full. It reads and
// writes the wrapped model's parameters. It implements Model and
// ShadowCloner, and the Trainer runs it sample by sample, since it is not
// an *AttentiveGRUModel.
type refAttn struct{ m *AttentiveGRUModel }

func (r refAttn) Name() string       { return r.m.Name() }
func (r refAttn) WindowSize() int    { return r.m.ws }
func (r refAttn) CtxSize() int       { return r.m.ctx }
func (r refAttn) Params() []*Param   { return r.m.Params() }
func (r refAttn) ShadowClone() Model { return refAttn{r.m.ShadowClone().(*AttentiveGRUModel)} }

type refCache struct {
	in            [][]float64 // embedding inputs, one per timestep
	e             *mat.Matrix // embeddings
	q, k, v, attn *mat.Matrix
	steps         []*refStep
	hFinal        []float64
}

type refStep struct{ x, hPrev, z, r, rh, cand, hNew []float64 }

// refDense is Dense's forward for one row: y = act(W·x + b).
func refDense(d *Dense, y, x []float64) {
	z := d.W.W.MulVec(x)
	mat.AddVec(z, z, d.B.W.Data)
	switch d.Act {
	case Linear:
		copy(y, z)
	case Tanh:
		mat.TanhTo(y, z)
	default:
		panic("refDense: activation not used by the attentive GRU")
	}
}

// refDenseBack is Dense's backward for one row, returning dL/dx.
func refDenseBack(d *Dense, x, y, dy []float64) []float64 {
	dz := make([]float64, d.Out)
	for i := range dz {
		if d.Act == Tanh {
			dz[i] = dy[i] * dTanhFromOutput(y[i])
		} else {
			dz[i] = dy[i]
		}
	}
	d.W.G.AddOuter(dz, x)
	mat.AxpyVec(d.B.G.Data, 1, dz)
	return d.W.W.TMulVec(dz)
}

func refGRUStep(c *GRUCell, x, h []float64) *refStep {
	n := c.hidden
	st := &refStep{x: x, hPrev: h, z: make([]float64, n), r: make([]float64, n),
		rh: make([]float64, n), cand: make([]float64, n), hNew: make([]float64, n)}
	pre, tmp := make([]float64, n), make([]float64, n)
	gate := func(w, u, b *Param, h []float64) {
		w.W.MulVecTo(pre, x)
		u.W.MulVecTo(tmp, h)
		mat.AddVec(pre, pre, tmp)
		mat.AddVec(pre, pre, b.W.Data)
	}
	gate(c.Wz, c.Uz, c.Bz, h)
	mat.SigmoidTo(st.z, pre)
	gate(c.Wr, c.Ur, c.Br, h)
	mat.SigmoidTo(st.r, pre)
	mat.HadamardVec(st.rh, st.r, h)
	gate(c.Wc, c.Uc, c.Bc, st.rh)
	mat.TanhTo(st.cand, pre)
	for i := range st.hNew {
		st.hNew[i] = (1-st.z[i])*h[i] + st.z[i]*st.cand[i]
	}
	return st
}

func refGRUBack(c *GRUCell, cc *refStep, dh []float64, wantPrev bool) (dx, dhPrev []float64) {
	n := c.hidden
	dz, dcand, dcPre := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		dz[i] = dh[i] * (cc.cand[i] - cc.hPrev[i])
		dcand[i] = dh[i] * cc.z[i]
	}
	for i := range dcPre {
		dcPre[i] = dcand[i] * dTanhFromOutput(cc.cand[i])
	}
	c.Wc.G.AddOuter(dcPre, cc.x)
	c.Uc.G.AddOuter(dcPre, cc.rh)
	mat.AxpyVec(c.Bc.G.Data, 1, dcPre)
	drh := c.Uc.W.TMulVec(dcPre)
	dr := make([]float64, n)
	for i := 0; i < n; i++ {
		dr[i] = drh[i] * cc.hPrev[i]
	}
	dzPre, drPre := make([]float64, n), make([]float64, n)
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

	dx = c.Wz.W.TMulVec(dzPre)
	mat.AxpyVec(dx, 1, c.Wr.W.TMulVec(drPre))
	mat.AxpyVec(dx, 1, c.Wc.W.TMulVec(dcPre))
	if !wantPrev {
		return dx, nil
	}
	dhp := make([]float64, n)
	for i := 0; i < n; i++ {
		dhp[i] = dh[i] * (1 - cc.z[i])
		dhp[i] += drh[i] * cc.r[i]
	}
	mat.AxpyVec(dhp, 1, c.Uz.W.TMulVec(dzPre))
	mat.AxpyVec(dhp, 1, c.Ur.W.TMulVec(drPre))
	return dx, dhp
}

func (r refAttn) Forward(window, ctx []float64) (float64, any) {
	m := r.m
	ctx = checkInputs(m, m.zeros, window, ctx)
	ws, d := m.ws, m.embed.Out
	c := &refCache{e: mat.New(ws, d), q: mat.New(ws, d), k: mat.New(ws, d), v: mat.New(ws, d), attn: mat.New(ws, ws)}
	for t, v := range window {
		in := append([]float64{v}, ctx...)
		c.in = append(c.in, in)
		refDense(m.embed, c.e.Row(t), in)
	}
	a := m.attn
	for t := 0; t < ws; t++ {
		a.Wq.W.MulVecTo(c.q.Row(t), c.e.Row(t))
		a.Wk.W.MulVecTo(c.k.Row(t), c.e.Row(t))
		a.Wv.W.MulVecTo(c.v.Row(t), c.e.Row(t))
	}
	scores := mat.MulBTTo(mat.New(ws, ws), c.q, c.k)
	for i := range scores.Data {
		scores.Data[i] *= a.scale()
	}
	for i := 0; i < ws; i++ {
		mat.SoftmaxRows(mat.FromSlice(1, ws, c.attn.Row(i)), mat.FromSlice(1, ws, scores.Row(i)))
	}
	y := mat.New(ws, d).Mul(c.attn, c.v)
	h := make([]float64, m.cell.hidden)
	for t := 0; t < ws; t++ {
		st := refGRUStep(m.cell, y.Row(t), h)
		c.steps = append(c.steps, st)
		h = st.hNew
	}
	c.hFinal = h
	out := make([]float64, 1)
	refDense(m.head, out, h)
	return out[0], c
}

func (r refAttn) Backward(cache any, dPred float64) {
	m, c := r.m, cache.(*refCache)
	ws, d := m.ws, m.embed.Out
	dh := refDenseBack(m.head, c.hFinal, nil, []float64{dPred})
	dAtt := mat.New(ws, d)
	for t := ws - 1; t >= 0; t-- {
		dx, dPrev := refGRUBack(m.cell, c.steps[t], dh, t > 0)
		copy(dAtt.Row(t), dx)
		dh = dPrev
	}
	dSeq := refAttnBack(m.attn, c, dAtt)
	for t := ws - 1; t >= 0; t-- {
		refDenseBack(m.embed, c.in[t], c.e.Row(t), dSeq.Row(t))
	}
}

// refAttnBack is SelfAttention.Backward for one sequence.
func refAttnBack(a *SelfAttention, c *refCache, dy *mat.Matrix) *mat.Matrix {
	n, d, scale := c.e.Rows, a.Dim, a.scale()
	dA := mat.MulBTTo(mat.New(n, n), dy, c.v)
	dV := mat.MulATTo(mat.New(n, d), c.attn, dy)
	dS := mat.New(n, n)
	for i := 0; i < n; i++ {
		arow, darow, dsrow := c.attn.Row(i), dA.Row(i), dS.Row(i)
		var dot float64
		for j := range arow {
			dot += darow[j] * arow[j]
		}
		for j := range arow {
			dsrow[j] = arow[j] * (darow[j] - dot) * scale
		}
	}
	dQ := mat.New(n, d).Mul(dS, c.k)
	dK := mat.MulATTo(mat.New(n, d), dS, c.q)
	dW := mat.New(d, d)
	a.Wq.G.Add(a.Wq.G, mat.MulATTo(dW, dQ, c.e))
	a.Wk.G.Add(a.Wk.G, mat.MulATTo(dW, dK, c.e))
	a.Wv.G.Add(a.Wv.G, mat.MulATTo(dW, dV, c.e))
	dx := mat.New(n, d).Mul(dQ, a.Wq.W)
	t := mat.New(n, d)
	dx.Add(dx, t.Mul(dK, a.Wk.W))
	dx.Add(dx, t.Mul(dV, a.Wv.W))
	return dx
}

// gradLog records every parameter's gradient bits at each optimiser step,
// then steps RMSProp.
type gradLog struct {
	opt   *RMSProp
	steps [][]uint64
}

func (o *gradLog) Step(ps []*Param) {
	var bits []uint64
	for _, p := range ps {
		for _, g := range p.G.Data {
			bits = append(bits, math.Float64bits(g))
		}
	}
	o.steps = append(o.steps, bits)
	o.opt.Step(ps)
}

// attnSamples returns n training windows of length ws with ctxDim context
// features, drawn from rng.
func attnSamples(rng *rand.Rand, n, ws, ctxDim int) []timeseries.Window {
	out := make([]timeseries.Window, n)
	for i := range out {
		out[i] = timeseries.Window{Input: randSlice(rng, ws), Target: rng.Float64(), Ctx: randSlice(rng, ctxDim)}
	}
	return out
}

// TestLockstepTrainingMatchesPerSample trains the attentive GRU with its
// block pass and with the per-sample reference from the same weights and
// the same shuffles: every epoch loss and every parameter's gradient at
// every optimiser step must be bit-equal. Blocks of 1, 2, 7, 16 and 17
// samples, as the serial batch (Workers 1) or each of two shards
// (Workers 2), over epochs whose last batch is short, at the release
// workload's shape (ws 6, embedding and hidden 16, ctx 3) and at ws 1.
func TestLockstepTrainingMatchesPerSample(t *testing.T) {
	for _, shape := range []struct{ ws, ctx, embed, hidden int }{{6, 3, 16, 16}, {1, 3, 5, 7}} {
		for _, b := range []int{1, 2, 7, 16, 17} {
			for _, workers := range []int{1, 2} {
				bs := b * workers
				n := 2*bs + bs/2 + 1 // the last batch is short
				fit := func(wrap func(*AttentiveGRUModel) Model) ([]float64, [][]uint64) {
					m := NewAttentiveGRUModel("attn", shape.ws, shape.ctx, shape.embed, shape.hidden, rand.New(rand.NewSource(41)))
					opt := &gradLog{opt: NewRMSProp(1e-2)}
					tr := &Trainer{Model: wrap(m), Opt: opt, Cfg: TrainConfig{Epochs: 2, BatchSize: bs, ClipNorm: 5},
						Rng: rand.New(rand.NewSource(42)), Workers: workers}
					losses, err := tr.FitContext(context.Background(), attnSamples(rand.New(rand.NewSource(43)), n, shape.ws, shape.ctx))
					if err != nil {
						t.Fatal(err)
					}
					return losses, opt.steps
				}
				gotL, got := fit(func(m *AttentiveGRUModel) Model { return m })
				wantL, want := fit(func(m *AttentiveGRUModel) Model { return refAttn{m} })
				for e := range wantL {
					if !bitsEqual(gotL[e], wantL[e]) {
						t.Fatalf("ws %d block %d workers %d: epoch %d loss %v, per-sample %v", shape.ws, b, workers, e, gotL[e], wantL[e])
					}
				}
				for s := range want {
					for i := range want[s] {
						if got[s][i] != want[s][i] {
							t.Fatalf("ws %d block %d workers %d: step %d gradient %d = %v, per-sample %v", shape.ws, b, workers, s, i,
								math.Float64frombits(got[s][i]), math.Float64frombits(want[s][i]))
						}
					}
				}
			}
		}
	}
}

// refRollouts rolls each sequence in turn through a per-step Predict loop,
// on the per-sample reference for the attentive GRU.
func refRollouts(m Model, seeds, ctxs [][]float64, horizon int, feed func(float64) float64) [][]float64 {
	if am, ok := m.(*AttentiveGRUModel); ok {
		m = refAttn{am}
	}
	out := make([][]float64, len(seeds))
	for i := range seeds {
		out[i] = refRollout(m, seeds[i], ctxs[i], horizon, feed)
	}
	return out
}

// TestRolloutsMatchPerSequence pins Rollouts, the attentive GRU's lockstep
// roll, to rolling each sequence alone through a per-step Predict loop
// (the per-sample reference for the attentive GRU), bit for bit: every
// model kind, blocks of 1, 2, 3 and 8 sequences, window sizes 1, 2 and 6,
// with and without context, each block holding an all-zero seed, under a
// clamping feed that bites.
func TestRolloutsMatchPerSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	bit := false
	clamp := func(p float64) float64 {
		c := math.Max(0, math.Min(p, 0.3))
		bit = bit || c != p
		return c
	}
	const horizon = 9
	for _, ws := range []int{1, 2, 6} {
		for _, ctxDim := range []int{0, 3} {
			for _, m := range rollModels(ws, ctxDim, rng) {
				for _, b := range []int{1, 2, 3, 8} {
					seeds, ctxs := make([][]float64, b), make([][]float64, b)
					for i := range seeds {
						seeds[i], ctxs[i] = randSlice(rng, ws+1), randSlice(rng, ctxDim)
					}
					seeds[b-1] = make([]float64, ws+1)
					want := refRollouts(m.(ShadowCloner).ShadowClone(), seeds, ctxs, horizon, clamp)
					got := Rollouts(m, seeds, ctxs, horizon, clamp)
					for i := range want {
						for j := range want[i] {
							if !bitsEqual(got[i][j], want[i][j]) {
								t.Fatalf("%s ws=%d ctx=%d block %d: sequence %d step %d = %v, alone %v",
									m.Name(), ws, ctxDim, b, i, j, got[i][j], want[i][j])
							}
						}
					}
				}
			}
		}
	}
	if !bit {
		t.Fatal("the clamp never changed a prediction")
	}
}

// TestTrainingBlockAllocs pins a training block of the attentive GRU, one
// lockstep forward and backward pass over 16 samples, at zero steady-state
// allocations: the block's storage comes from the model's arena.
func TestTrainingBlockAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates inside instrumented code")
	}
	rng := rand.New(rand.NewSource(35))
	m := NewAttentiveGRUModel("attn", 6, 3, 16, 16, rng)
	samples := attnSamples(rng, 16, 6, 3)
	batch := make([]int, len(samples))
	for i := range batch {
		batch[i] = i
	}
	step := func() {
		pred, d := m.forwardBlock(samples, batch)
		for i := range d {
			d[i] = pred[i] - samples[i].Target
		}
		m.backwardBlock()
	}
	step() // warm the arena, the pools and the transposes
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Errorf("training block allocates %v per pass, want 0", n)
	}
}

// fuzzValue decodes a finite float64 from two bytes: 0x8000 is −0, every
// other value k is int16(k)/4096, so +0 comes up too.
func fuzzValue(b []byte) float64 {
	k := binary.LittleEndian.Uint16(b)
	if k == 0x8000 {
		return math.Copysign(0, -1)
	}
	return float64(int16(k)) / 4096
}

// FuzzLockstep checks the attentive GRU's block pass against the
// per-sample reference on fuzzer-chosen window sizes, block sizes and
// values (±0 included): every prediction, every gradient bit after one
// block's backward pass, and a three-step lockstep rollout.
func FuzzLockstep(f *testing.F) {
	f.Add(uint8(6), uint8(16), []byte{1, 2, 3, 4, 0, 0x80, 0, 0, 9, 9})
	f.Add(uint8(1), uint8(1), []byte{0, 0x80})
	f.Add(uint8(3), uint8(17), []byte{})
	f.Fuzz(func(t *testing.T, wsB, bB uint8, data []byte) {
		ws, b := 1+int(wsB)%8, 1+int(bB)%20
		const ctxDim = 2
		next := func(i int) float64 {
			if len(data) < 2 {
				return float64(i%7) / 3
			}
			j := 2 * (i % (len(data) / 2))
			return fuzzValue(data[j:])
		}
		samples := make([]timeseries.Window, b)
		batch := make([]int, b)
		k := 0
		for s := range samples {
			w := timeseries.Window{Input: make([]float64, ws), Ctx: make([]float64, ctxDim)}
			for i := range w.Input {
				w.Input[i] = next(k)
				k++
			}
			for i := range w.Ctx {
				w.Ctx[i] = next(k)
				k++
			}
			w.Target = next(k)
			k++
			samples[s], batch[s] = w, s
		}
		m := NewAttentiveGRUModel("attn", ws, ctxDim, 5, 6, rand.New(rand.NewSource(int64(k))))
		ref := refAttn{m.ShadowClone().(*AttentiveGRUModel)}

		pred, d := m.forwardBlock(samples, batch)
		for s, w := range samples {
			p, c := ref.Forward(w.Input, w.Ctx)
			if !bitsEqual(pred[s], p) {
				t.Fatalf("ws %d block %d: sample %d predicts %v, per-sample %v", ws, b, s, pred[s], p)
			}
			d[s] = pred[s] - w.Target
			ref.Backward(c, d[s])
		}
		m.backwardBlock()
		want := ref.Params()
		for i, p := range m.Params() {
			for j, g := range p.G.Data {
				if !bitsEqual(g, want[i].G.Data[j]) {
					t.Fatalf("ws %d block %d: %s.G[%d] = %v, per-sample %v", ws, b, p.Name, j, g, want[i].G.Data[j])
				}
			}
		}

		seeds, ctxs := make([][]float64, b), make([][]float64, b)
		for s, w := range samples {
			seeds[s], ctxs[s] = w.Input, w.Ctx
		}
		got, wantR := Rollouts(m, seeds, ctxs, 3, nil), refRollouts(ref.m, seeds, ctxs, 3, nil)
		for s := range wantR {
			for i := range wantR[s] {
				if !bitsEqual(got[s][i], wantR[s][i]) {
					t.Fatalf("ws %d block %d: sequence %d roll step %d = %v, alone %v", ws, b, s, i, got[s][i], wantR[s][i])
				}
			}
		}
	})
}
