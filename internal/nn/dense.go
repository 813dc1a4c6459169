package nn

import (
	"math/rand"

	"repro/internal/mat"
)

// Dense is a fully connected layer y = act(W·x + b) over vectors. It runs
// inside a model, on the model's arena.
//
// A Dense layer owns reusable scratch buffers, so a given instance must
// only be used from one goroutine at a time; data-parallel training gives
// each worker its own shadow clone (see ShadowCloner).
type Dense struct {
	In, Out int
	W       *Param // Out x In
	B       *Param // 1 x Out
	Act     Activation

	z  []float64 // one row's pre-activation scratch, reused across Forward calls
	dz []float64 // one row's pre-activation gradient scratch for Backward

	// ar is the owning model's per-pass storage for outputs and caches;
	// caches pools the denseCache structs per pass (a model may call
	// Forward once per timestep).
	ar     *arena
	caches pool[denseCache]
}

func (d *Dense) setArena(a *arena) { d.ar = a }
func (d *Dense) resetScratch()     { d.caches.reset() }

// Activation selects the elementwise non-linearity of a Dense layer.
type Activation int

const (
	// Linear applies no non-linearity.
	Linear Activation = iota
	// Tanh applies tanh.
	Tanh
	// Sigmoid applies the logistic function.
	Sigmoid
	// ReLU applies max(0, x).
	ReLU
)

// newDense creates a Dense layer with Glorot-uniform weights.
func newDense(name string, in, out int, act Activation, rng *rand.Rand) *Dense {
	d := &Dense{In: in, Out: out, Act: act,
		W: NewParam(name+".W", out, in),
		B: NewParam(name+".b", 1, out),
	}
	d.W.W.GlorotUniform(rng, in, out)
	return d
}

// Params returns the layer's trainable parameters.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// shadow returns a clone sharing weight storage with d but owning fresh
// gradient and scratch buffers, for single-goroutine use by one worker.
func (d *Dense) shadow() *Dense {
	return &Dense{In: d.In, Out: d.Out, Act: d.Act, W: d.W.Shadow(), B: d.B.Shadow()}
}

// denseCache stores what Backward needs from one Forward call.
type denseCache struct {
	x []float64 // input
	y []float64 // post-activation output
	z []float64 // pre-activation, kept only for ReLU
}

// Forward computes the layer output and a cache for Backward: the
// one-row case of apply.
func (d *Dense) Forward(x []float64) ([]float64, *denseCache) {
	if len(x) != d.In {
		panic("nn: Dense input size mismatch")
	}
	// ReLU keeps the pre-activation in the cache, so it must outlive this
	// call: allocate z and y as one slab. Other activations reconstruct
	// their derivative from y alone, so z can live in reusable scratch.
	var z, y []float64
	if d.Act == ReLU {
		slab := d.ar.alloc(2 * d.Out)
		z, y = slab[:d.Out], slab[d.Out:]
	} else {
		if d.z == nil {
			d.z = make([]float64, d.Out)
		}
		z = d.z
		y = d.ar.alloc(d.Out)
	}
	zm, ym, xm := rowOf(z), rowOf(y), rowOf(x)
	d.apply(&zm, &ym, &xm, false)
	c := d.caches.next()
	c.x, c.y, c.z = x, y, nil
	if d.Act == ReLU {
		c.z = z
	}
	return y, c
}

// rowOf wraps a vector as a one-row matrix.
func rowOf(v []float64) mat.Matrix { return mat.Matrix{Rows: 1, Cols: len(v), Data: v} }

// apply is the layer's arithmetic over a block of rows: Z = X·Wᵀ + b and
// Y = act(Z), the product as mulWT computes it for block and the
// activation run once over the whole block. Forward runs it on one row.
func (d *Dense) apply(z, y, x *mat.Matrix, block bool) {
	mulWT(z, x, d.W, block)
	addBias(z, d.B)
	switch d.Act {
	case Linear:
		copy(y.Data, z.Data)
	case Tanh:
		mat.TanhTo(y.Data, z.Data)
	case Sigmoid:
		mat.SigmoidTo(y.Data, z.Data)
	case ReLU:
		for i, v := range z.Data {
			y.Data[i] = relu(v)
		}
	}
}

// Backward accumulates parameter gradients given dL/dy and returns dL/dx.
func (d *Dense) Backward(c *denseCache, dy []float64) []float64 {
	return d.ar.tmulVec(d.W.W, d.accumulate(c, dy))
}

// accumulate is Backward without dL/dx: it adds the parameter gradients
// and returns dL/dz. A model's first layer runs it, because nothing reads
// the gradient of the model's input.
func (d *Dense) accumulate(c *denseCache, dy []float64) []float64 {
	if len(dy) != d.Out {
		panic("nn: Dense gradient size mismatch")
	}
	if d.dz == nil {
		d.dz = make([]float64, d.Out)
	}
	d.preGrad(d.dz, dy, c.y, c.z)
	d.W.G.AddOuter(d.dz, c.x)
	mat.AxpyVec(d.B.G.Data, 1, d.dz)
	return d.dz
}

// preGrad sets dz = dL/dz elementwise from dy = dL/dy and the forward's
// output y (and its pre-activation z, which only ReLU reads), over rows
// of any number.
func (d *Dense) preGrad(dz, dy, y, z []float64) {
	switch d.Act {
	case Linear:
		copy(dz, dy)
	case Tanh:
		for i := range dz {
			dz[i] = dy[i] * dTanhFromOutput(y[i])
		}
	case Sigmoid:
		for i := range dz {
			dz[i] = dy[i] * dSigmoidFromOutput(y[i])
		}
	case ReLU:
		for i := range dz {
			if z[i] > 0 {
				dz[i] = dy[i]
			} else {
				dz[i] = 0
			}
		}
	}
}
