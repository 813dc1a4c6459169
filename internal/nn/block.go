package nn

import (
	"repro/internal/mat"
	"repro/internal/timeseries"
)

// attnBlock is the attentive GRU's pass over a block of B sequences in
// lockstep (DESIGN §13). Every layer's products run once over the block:
// the embedding and the Q/K/V projections over all B·ws rows, each GRU
// gate product over the B rows of one timestep, the head over the B final
// states; so does each activation, the softmax over all B·ws score rows.
// Only the scores and A·V run per sequence. With B > 1 the forward
// products are Muls against transposes taken once, at begin; with B = 1
// they are W·x per row and take none.
//
// Its matrices come from the model's arena at begin, so like every cache
// they are valid until the next Forward on the instance. A rollout keeps
// them from its first step to its last.
type attnBlock struct {
	b     int  // sequences in the block
	block bool // b > 1: forward products use the transposes begin took

	in   mat.Matrix // B·ws × (1+ctx): row s·ws+t is [window_s[t], ctx_s...]
	z, e mat.Matrix // B·ws × d: embedding pre-activations, embeddings
	q, k mat.Matrix // B·ws × d
	v, y mat.Matrix // B·ws × d: values, attended sequence
	sc   mat.Matrix // B·ws × ws: scaled scores
	attn mat.Matrix // B·ws × ws: softmax rows
	seqs []attnSeq  // per-sequence views of the matrices above

	steps []gruCache   // the ws GRU steps, B rows each
	h     []mat.Matrix // ws+1 states, B rows each: h[0] is zero
	hz    mat.Matrix   // B × 1: head pre-activations
	out   mat.Matrix   // B × 1: the predictions
	dPred []float64    // B: dL/dpred, read by backwardBlock

	// Rollout state: the fed-back values and the newest row's embedding
	// input, embedding and projections, B rows each.
	fed        []float64
	inNew      mat.Matrix
	zNew, eNew mat.Matrix
	qNew, kNew mat.Matrix
	vNew       mat.Matrix
	col        []float64 // ws−1 new column scores of one sequence
}

// attnSeq is one sequence's rows of the block: its attention cache (x is
// its embeddings), scores and attended sequence.
type attnSeq struct {
	attnCache
	sc, y mat.Matrix
}

// fwdWeights lists the weights the forward pass multiplies by, whose
// transposes a block pass takes.
func (m *AttentiveGRUModel) fwdWeights() [11]*Param {
	c := m.cell
	return [11]*Param{m.embed.W, m.attn.Wq, m.attn.Wk, m.attn.Wv, c.Wz, c.Uz, c.Wr, c.Ur, c.Wc, c.Uc, m.head.W}
}

// begin starts a pass over b sequences: it rewinds the arena and lays out
// the block's storage.
func (m *AttentiveGRUModel) begin(b int) *attnBlock {
	m.beginPass()
	k := &m.blk
	ws, d, hn := m.ws, m.embed.Out, m.cell.hidden
	rows := b * ws
	k.b, k.block = b, b > 1
	if k.block {
		for _, p := range m.fwdWeights() {
			p.transposeW()
		}
	}
	ar := m.ar
	k.in = ar.block(rows, 1+m.ctx)
	k.z, k.e = ar.block(rows, d), ar.block(rows, d)
	k.q, k.k, k.v, k.y = ar.block(rows, d), ar.block(rows, d), ar.block(rows, d), ar.block(rows, d)
	k.sc, k.attn = ar.block(rows, ws), ar.block(rows, ws)
	if cap(k.seqs) < b {
		k.seqs = make([]attnSeq, b)
	}
	k.seqs = k.seqs[:b]
	for s := range k.seqs {
		r0 := s * ws
		k.seqs[s] = attnSeq{
			attnCache: attnCache{x: rowsOf(&k.e, r0, ws), q: rowsOf(&k.q, r0, ws), k: rowsOf(&k.k, r0, ws),
				v: rowsOf(&k.v, r0, ws), attn: rowsOf(&k.attn, r0, ws)},
			sc: rowsOf(&k.sc, r0, ws), y: rowsOf(&k.y, r0, ws),
		}
	}
	if k.steps == nil {
		k.steps, k.h = make([]gruCache, ws), make([]mat.Matrix, ws+1)
	}
	k.h[0] = ar.block(b, hn)
	for t := range k.steps {
		k.steps[t] = gruCache{x: ar.block(b, d), hPrev: k.h[t],
			z: ar.block(b, hn), r: ar.block(b, hn), cand: ar.block(b, hn), rh: ar.block(b, hn)}
		k.h[t+1] = ar.block(b, hn)
	}
	k.hz, k.out = ar.block(b, 1), ar.block(b, 1)
	k.dPred = ar.alloc(b)
	return k
}

// fill writes sequence s's embedding inputs.
func (m *AttentiveGRUModel) fill(k *attnBlock, s int, window, ctx []float64) {
	ctx = checkInputs(m, m.zeros, window, ctx)
	for t, v := range window {
		row := k.in.Row(s*m.ws + t)
		row[0] = v
		copy(row[1:], ctx)
	}
}

// forward runs the block's forward pass: embeddings, projections and
// each sequence's scores, then the rest (finish).
func (m *AttentiveGRUModel) forward(k *attnBlock) {
	m.embed.apply(&k.z, &k.e, &k.in, k.block)
	m.attn.project(&k.q, &k.k, &k.v, &k.e, k.block)
	for s := range k.seqs {
		sq := &k.seqs[s]
		m.attn.score(&sq.sc, &sq.attnCache)
	}
	m.finish(k)
}

// finish runs the softmax over every score row of the block and each
// sequence's A·V, then the GRU over the attended sequences, ws lockstep
// steps of B rows from the zero state, and the head on the last states.
func (m *AttentiveGRUModel) finish(k *attnBlock) {
	ws := m.ws
	mat.SoftmaxRows(&k.attn, &k.sc)
	for s := range k.seqs {
		sq := &k.seqs[s]
		sq.y.Mul(&sq.attn, &sq.v)
	}
	for t := range k.steps {
		st := &k.steps[t]
		for s := 0; s < k.b; s++ {
			copy(st.x.Row(s), k.y.Row(s*ws+t))
		}
		m.cell.step(st, &k.h[t+1], k.block)
	}
	m.head.apply(&k.hz, &k.out, &k.h[ws], k.block)
}

// forwardBlock runs the forward pass of samples[batch[i]] for every i in
// lockstep. It returns the predictions and the slice backwardBlock reads
// each prediction's dL/dpred from; both are valid until the next pass.
func (m *AttentiveGRUModel) forwardBlock(samples []timeseries.Window, batch []int) (pred, dPred []float64) {
	k := m.begin(len(batch))
	for s, si := range batch {
		m.fill(k, s, samples[si].Input, samples[si].Ctx)
	}
	m.forward(k)
	return k.out.Data, k.dPred
}

// backwardBlock backpropagates the last forwardBlock.
func (m *AttentiveGRUModel) backwardBlock() { m.backprop(&m.blk, false) }

// backprop is the block's backward pass from k.dPred, adding every
// parameter's gradient. Each weight's gradient is one addGrad over the
// rows the per-sample loop would add one AddOuter at a time, in its
// order: sample by sample, and within a sample the GRU and the embedding
// from the last timestep down, so from +0 it gets AddOuter's bits. The
// attention weights keep their per-sample two-step G.Add. With wantH0
// unset the first GRU step skips dL/dh₀ (see GRUCell.backStep).
func (m *AttentiveGRUModel) backprop(k *attnBlock, wantH0 bool) {
	ar, c := m.ar, m.cell
	b, ws, d, hn := k.b, m.ws, m.embed.Out, c.hidden
	rows := b * ws
	// at is the (sample, descending t) row of sample s at timestep t.
	at := func(s, t int) int { return s*ws + ws - 1 - t }

	// Head: one row per sample, in order.
	dz := ar.block(b, 1)
	m.head.preGrad(dz.Data, k.dPred, k.out.Data, k.hz.Data)
	pH := ar.block(1, hn)
	m.head.W.addGrad(&pH, &dz, &k.h[ws])
	m.head.B.addBiasGrad(&dz)
	dh := ar.block(b, hn)
	dh.Mul(&dz, m.head.W.W)

	// GRU, from the last step down. Its gate gradients and their operands
	// are gathered in (sample, descending t) rows for the weights' products.
	dzs, drs, dcs := ar.block(rows, hn), ar.block(rows, hn), ar.block(rows, hn)
	xs, hs, rhs := ar.block(rows, d), ar.block(rows, hn), ar.block(rows, hn)
	dY := ar.block(rows, d)
	dx := ar.block(b, d)
	for t := ws - 1; t >= 0; t-- {
		st := &k.steps[t]
		g := gruGrads{z: ar.block(b, hn), r: ar.block(b, hn), c: ar.block(b, hn)}
		var dhPrev *mat.Matrix
		if t > 0 || wantH0 {
			p := ar.block(b, hn)
			dhPrev = &p
		}
		c.backStep(st, &dh, &g, &dx, dhPrev)
		for s := 0; s < b; s++ {
			r := at(s, t)
			copy(dzs.Row(r), g.z.Row(s))
			copy(drs.Row(r), g.r.Row(s))
			copy(dcs.Row(r), g.c.Row(s))
			copy(xs.Row(r), st.x.Row(s))
			copy(hs.Row(r), st.hPrev.Row(s))
			copy(rhs.Row(r), st.rh.Row(s))
			copy(dY.Row(s*ws+t), dx.Row(s))
		}
		if dhPrev != nil {
			dh = *dhPrev
		}
	}
	pW, pU := ar.block(hn, d), ar.block(hn, hn)
	c.Wz.addGrad(&pW, &dzs, &xs)
	c.Uz.addGrad(&pU, &dzs, &hs)
	c.Bz.addBiasGrad(&dzs)
	c.Wr.addGrad(&pW, &drs, &xs)
	c.Ur.addGrad(&pU, &drs, &hs)
	c.Br.addBiasGrad(&drs)
	c.Wc.addGrad(&pW, &dcs, &xs)
	c.Uc.addGrad(&pU, &dcs, &rhs)
	c.Bc.addBiasGrad(&dcs)

	// Attention, one sample at a time, then the embedding over the
	// (sample, descending t) rows. The model's input gradient is never
	// read, so the embedding computes none.
	dze, ins := ar.block(rows, d), ar.block(rows, 1+m.ctx)
	for s := range k.seqs {
		dys := rowsOf(&dY, s*ws, ws)
		dxs := m.attn.Backward(&k.seqs[s].attnCache, &dys)
		for t := 0; t < ws; t++ {
			r := at(s, t)
			m.embed.preGrad(dze.Row(r), dxs.Row(t), k.e.Row(s*ws+t), nil)
			copy(ins.Row(r), k.in.Row(s*ws+t))
		}
	}
	pE := ar.block(d, 1+m.ctx)
	m.embed.W.addGrad(&pE, &dze, &ins)
	m.embed.B.addBiasGrad(&dze)
}

// rollout rolls every sequence of seeds forward in lockstep (Rollouts):
// the first step is one block forward pass, and every later step is
// rollNext.
func (m *AttentiveGRUModel) rollout(seeds, ctxs, out [][]float64, feed func(float64) float64) {
	b, ws, d := len(seeds), m.ws, m.embed.Out
	k := m.begin(b)
	for s, seed := range seeds {
		var ctx []float64
		if ctxs != nil {
			ctx = ctxs[s]
		}
		m.fill(k, s, seed[len(seed)-ws:], ctx)
	}
	ar := m.ar
	k.fed = ar.alloc(b)
	k.inNew = ar.block(b, 1+m.ctx)
	for s := 0; s < b; s++ {
		copy(k.inNew.Row(s)[1:], k.in.Row(s * ws)[1:])
	}
	k.zNew, k.eNew = ar.block(b, d), ar.block(b, d)
	k.qNew, k.kNew, k.vNew = ar.block(b, d), ar.block(b, d), ar.block(b, d)
	k.col = ar.alloc(ws - 1)
	m.forward(k)
	for i := range out[0] {
		if i > 0 {
			m.rollNext(k)
		}
		for s, p := range k.out.Data {
			if feed != nil {
				p = feed(p)
			}
			out[s][i] = p
			k.fed[s] = p
		}
	}
}

// rollNext shifts every window of the block left by one, appends the
// block's fed values and predicts again.
//
// Three kinds of value depend only on inputs that shift unchanged from
// one step to the next: embedding row t only on (window[t], ctx), Q/K/V
// row t only on embedding row t, and score (i, j) only on Q row i and K
// row j, summed in increasing k. So after a shift, rows 1..ws−1 become
// rows 0..ws−2 and score (i+1, j+1) becomes score (i, j), bit for bit.
// rollNext computes only the new embedding and Q/K/V rows, as B-row block
// products, and each sequence's 2·ws−1 new scores; the softmax, A·V, the
// GRU steps and the head read every row and run in full (finish).
func (m *AttentiveGRUModel) rollNext(k *attnBlock) {
	d, last := m.embed.Out, m.ws-1
	for s := range k.seqs {
		sq := &k.seqs[s]
		copy(sq.q.Data, sq.q.Data[d:])
		copy(sq.k.Data, sq.k.Data[d:])
		copy(sq.v.Data, sq.v.Data[d:])
		for i := 0; i < last; i++ {
			copy(sq.sc.Row(i)[:last], sq.sc.Row(i + 1)[1:])
		}
		k.inNew.Row(s)[0] = k.fed[s]
	}
	m.embed.apply(&k.zNew, &k.eNew, &k.inNew, k.block)
	m.attn.project(&k.qNew, &k.kNew, &k.vNew, &k.eNew, k.block)
	scale := m.attn.scale()
	for s := range k.seqs {
		sq := &k.seqs[s]
		copy(sq.q.Row(last), k.qNew.Row(s))
		copy(sq.k.Row(last), k.kNew.Row(s))
		copy(sq.v.Row(last), k.vNew.Row(s))
		// The new scores: row ws−1 is K·q_new and column ws−1 is Q·k_new,
		// each element a dot product in increasing k like the batched Q·Kᵀ.
		row := sq.sc.Row(last)
		sq.k.MulVecTo(row, sq.q.Row(last))
		for j := range row {
			row[j] *= scale
		}
		qHead := rowsOf(&sq.q, 0, last)
		qHead.MulVecTo(k.col, sq.k.Row(last))
		for i, v := range k.col {
			sq.sc.Row(i)[last] = v * scale
		}
	}
	m.finish(k)
}
