package nn

import (
	"fmt"

	"repro/internal/mat"
)

// Rollout autoregressively extends seed by horizon steps under a fixed
// context vector. The model first predicts from the last WindowSize values
// of seed; each prediction p is then passed through feed (nil keeps p as
// it is), and the fed value is both the step's output and the value the
// window shifts in for the next prediction.
//
// Every output is bit-identical to Predict on the window the loop has
// shifted to. The attentive GRU gets there incrementally (see attnRoll);
// the other models run Predict on each window.
func Rollout(m Model, seed, ctx []float64, horizon int, feed func(float64) float64) []float64 {
	ws := m.WindowSize()
	if len(seed) < ws {
		panic(fmt.Sprintf("nn: rollout seed %d shorter than window %d", len(seed), ws))
	}
	r := rollerOf(m)
	out := make([]float64, horizon)
	for i := range out {
		var p float64
		if i == 0 {
			p = r.start(seed[len(seed)-ws:], ctx)
		} else {
			p = r.next(out[i-1])
		}
		if feed != nil {
			p = feed(p)
		}
		out[i] = p
	}
	return out
}

// roller is the state of one rollout: start predicts from a full window,
// and next shifts that window left by one, appends v and predicts again.
type roller interface {
	start(window, ctx []float64) float64
	next(v float64) float64
}

// rollerOf returns the attentive GRU's incremental roller, and a shifting
// window over Predict for every other model.
func rollerOf(m Model) roller {
	if am, ok := m.(*AttentiveGRUModel); ok {
		return am.roller()
	}
	return &windowRoll{m: m}
}

// windowRoll rolls any model by shifting a copy of the window and running
// Predict on it at every step.
type windowRoll struct {
	m      Model
	window []float64
	ctx    []float64
}

func (r *windowRoll) start(window, ctx []float64) float64 {
	r.window = append(r.window[:0], window...)
	r.ctx = ctx
	return Predict(r.m, r.window, r.ctx)
}

func (r *windowRoll) next(v float64) float64 {
	copy(r.window, r.window[1:])
	r.window[len(r.window)-1] = v
	return Predict(r.m, r.window, r.ctx)
}

// attnRoll is the attentive GRU's inference state. It is allocated once
// per model instance (each worker clone has its own) and reused by every
// Predict and every step of every Rollout on that instance.
//
// Three kinds of value depend only on inputs that shift unchanged from one
// step to the next: embedding row t only on (window[t], ctx), Q/K/V row t
// only on embedding row t, and score (i, j) only on Q row i and K row j,
// summed in increasing k. So after a shift, rows 1..ws−1 become rows
// 0..ws−2 and score (i+1, j+1) becomes score (i, j), bit for bit. next
// computes only the new embedding and Q/K/V row and the 2·ws−1 new scores;
// the softmax, A·V, the GRU steps and the head read every row and run in
// full.
type attnRoll struct {
	m      *AttentiveGRUModel
	in     []float64   // [value, ctx...]: the embedding's input
	e      []float64   // the newest value's embedding
	c      attnCache   // x: window embeddings (start only); q, k, v, attn
	scores *mat.Matrix // ws x ws, already scaled
	qHead  mat.Matrix  // view of q's first ws−1 rows
	col    []float64   // the new column's ws−1 scores
	y      *mat.Matrix // attended sequence, the GRU's input
	h, h2  []float64   // GRU state and its successor
	out    []float64   // head output
}

// roller returns the model's roll state, allocating it on first use.
func (m *AttentiveGRUModel) roller() *attnRoll {
	if m.roll == nil {
		ws, d := m.ws, m.embed.Out
		r := &attnRoll{
			m:      m,
			in:     make([]float64, 1+m.ctx),
			e:      make([]float64, d),
			scores: mat.New(ws, ws),
			col:    make([]float64, ws-1),
			y:      mat.New(ws, d),
			h:      make([]float64, m.cell.StateSize()),
			h2:     make([]float64, m.cell.StateSize()),
			out:    make([]float64, 1),
		}
		r.c = attnCache{x: mat.New(ws, d), q: mat.New(ws, d), k: mat.New(ws, d), v: mat.New(ws, d), attn: mat.New(ws, ws)}
		r.qHead = mat.Matrix{Rows: ws - 1, Cols: d, Data: r.c.q.Data[:(ws-1)*d]}
		m.roll = r
	}
	return m.roll
}

func (r *attnRoll) start(window, ctx []float64) float64 {
	m := r.m
	copy(r.in[1:], checkInputs(m, m.zeros, window, ctx))
	for t, v := range window {
		r.in[0] = v
		m.embed.infer(r.c.x.Row(t), r.in)
	}
	m.attn.attend(&r.c, r.scores, r.y)
	return r.finish()
}

func (r *attnRoll) next(v float64) float64 {
	m := r.m
	d, last := m.embed.Out, m.ws-1
	q, k := r.c.q, r.c.k
	copy(q.Data, q.Data[d:])
	copy(k.Data, k.Data[d:])
	copy(r.c.v.Data, r.c.v.Data[d:])
	for i := 0; i < last; i++ {
		copy(r.scores.Row(i)[:last], r.scores.Row(i + 1)[1:])
	}
	r.in[0] = v
	m.embed.infer(r.e, r.in)
	m.attn.project(q.Row(last), k.Row(last), r.c.v.Row(last), r.e)
	// The new scores: row ws−1 is K·q_new and column ws−1 is Q·k_new,
	// each element a dot product in increasing k like the batched Q·Kᵀ.
	scale := m.attn.scale()
	row := r.scores.Row(last)
	k.MulVecTo(row, q.Row(last))
	for j := range row {
		row[j] *= scale
	}
	r.qHead.MulVecTo(r.col, k.Row(last))
	for i, s := range r.col {
		r.scores.Row(i)[last] = s * scale
	}
	mix(r.c.attn, r.y, r.scores, r.c.v)
	return r.finish()
}

// finish runs the GRU over the attended sequence and the head on its last
// state.
func (r *attnRoll) finish() float64 {
	m := r.m
	h, next := r.h, r.h2
	clear(h)
	for t := 0; t < m.ws; t++ {
		m.cell.stepInfer(r.y.Row(t), h, next)
		h, next = next, h
	}
	m.head.infer(r.out, h)
	return r.out[0]
}
