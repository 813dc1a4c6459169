package nn

// ShadowCloner is implemented by models that can produce data-parallel
// training clones. A shadow clone shares the original's weight matrices
// (read-only during forward/backward) but owns private gradient
// accumulators and scratch buffers, so each worker goroutine can run
// Forward/Backward on its own clone without synchronisation. The trainer
// reduces clone gradients into the base parameters in fixed shard order;
// optimizers only ever step base parameters. Every model in this package
// implements it.
type ShadowCloner interface {
	ShadowClone() Model
}

func (a *SelfAttention) shadow() *SelfAttention {
	return &SelfAttention{Dim: a.Dim, Wq: a.Wq.Shadow(), Wk: a.Wk.Shadow(), Wv: a.Wv.Shadow()}
}

func (l *LayerNorm) shadow() *LayerNorm {
	return &LayerNorm{Dim: l.Dim, Gamma: l.Gamma.Shadow(), Beta: l.Beta.Shadow()}
}

// ShadowClone returns a worker-private clone.
func (m *RecurrentModel) ShadowClone() Model {
	c := &RecurrentModel{
		name:  m.name,
		ws:    m.ws,
		ctx:   m.ctx,
		embed: m.embed.shadow(),
		cell:  m.cell.shadow(),
		head:  m.head.shadow(),
	}
	c.wire(c.ctx, c.embed, c.cell, c.head)
	return c
}

// ShadowClone returns a worker-private clone.
func (m *AttentiveGRUModel) ShadowClone() Model {
	c := &AttentiveGRUModel{
		name:  m.name,
		ws:    m.ws,
		ctx:   m.ctx,
		embed: m.embed.shadow(),
		attn:  m.attn.shadow(),
		cell:  m.cell.shadow().(*GRUCell),
		head:  m.head.shadow(),
	}
	c.wire(c.ctx, c.embed, c.attn, c.cell, c.head)
	return c
}

// ShadowClone returns a worker-private clone. The fixed positional
// encoding matrix is shared: it is never written after construction.
func (m *TransformerModel) ShadowClone() Model {
	c := &TransformerModel{
		name:  m.name,
		ws:    m.ws,
		ctx:   m.ctx,
		embed: m.embed.shadow(),
		pos:   m.pos,
		attn:  m.attn.shadow(),
		ln1:   m.ln1.shadow(),
		ffn1:  m.ffn1.shadow(),
		ffn2:  m.ffn2.shadow(),
		ln2:   m.ln2.shadow(),
		head:  m.head.shadow(),
	}
	c.wire(c.ctx, c.embed, c.attn, c.ln1, c.ffn1, c.ffn2, c.ln2, c.head)
	return c
}
