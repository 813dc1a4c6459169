package nn

import (
	"math/rand"

	"repro/internal/mat"
)

// Dense is a fully connected layer y = act(W·x + b) over vectors.
//
// A Dense layer owns reusable scratch buffers, so a given instance must
// only be used from one goroutine at a time; data-parallel training gives
// each worker its own shadow clone (see ShadowCloner).
type Dense struct {
	In, Out int
	W       *Param // Out x In
	B       *Param // 1 x Out
	Act     Activation

	z  []float64 // pre-activation scratch, reused across Forward calls
	dz []float64 // pre-activation gradient scratch for Backward

	// ar, when set by an owning model, supplies per-pass storage for
	// outputs and caches; nil keeps the historical allocate-per-call path
	// for standalone layers. caches/ci pool the denseCache structs per
	// pass (a model may call Forward once per timestep).
	ar     *arena
	caches []denseCache
	ci     int
}

func (d *Dense) setArena(a *arena) { d.ar = a }
func (d *Dense) resetScratch()     { d.ci = 0 }

// nextCache returns a pooled cache struct (arena mode) or a fresh one.
func (d *Dense) nextCache() *denseCache {
	if d.ar == nil {
		return &denseCache{}
	}
	if d.ci == len(d.caches) {
		d.caches = append(d.caches, denseCache{})
	}
	c := &d.caches[d.ci]
	d.ci++
	return c
}

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

// NewDense creates a Dense layer with Glorot-uniform weights.
func NewDense(name string, in, out int, act Activation, rng *rand.Rand) *Dense {
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

// Forward computes the layer output and a cache for Backward.
func (d *Dense) Forward(x []float64) ([]float64, *denseCache) {
	if len(x) != d.In {
		panic("nn: Dense input size mismatch")
	}
	// ReLU keeps the pre-activation in the cache, so it must outlive this
	// call: allocate z and y as one slab. Other activations reconstruct
	// their derivative from y alone, so z can live in reusable scratch.
	var z, y []float64
	if d.Act == ReLU {
		slab := arenaAlloc(d.ar, 2*d.Out)
		z, y = slab[:d.Out], slab[d.Out:]
	} else {
		z = d.scratchZ()
		y = arenaAlloc(d.ar, d.Out)
	}
	d.apply(z, y, x)
	c := d.nextCache()
	c.x, c.y, c.z = x, y, nil
	if d.Act == ReLU {
		c.z = z
	}
	return y, c
}

// infer computes the layer output into y and records nothing: the
// inference-only counterpart of Forward.
func (d *Dense) infer(y, x []float64) {
	if len(x) != d.In {
		panic("nn: Dense input size mismatch")
	}
	d.apply(d.scratchZ(), y, x)
}

func (d *Dense) scratchZ() []float64 {
	if d.z == nil {
		d.z = make([]float64, d.Out)
	}
	return d.z
}

// apply is the layer's arithmetic: z = W·x + b, y = act(z). Forward and
// infer differ only in where z and y live and in what Forward records.
func (d *Dense) apply(z, y, x []float64) {
	d.W.W.MulVecTo(z, x)
	mat.AddVec(z, z, d.B.W.Data)
	switch d.Act {
	case Linear:
		copy(y, z)
	case Tanh:
		tanhVec(y, z)
	case Sigmoid:
		sigmoidVec(y, z)
	case ReLU:
		for i, v := range z {
			y[i] = relu(v)
		}
	}
}

// Backward accumulates parameter gradients given dL/dy and returns dL/dx.
func (d *Dense) Backward(c *denseCache, dy []float64) []float64 {
	if len(dy) != d.Out {
		panic("nn: Dense gradient size mismatch")
	}
	if d.dz == nil {
		d.dz = make([]float64, d.Out)
	}
	dz := d.dz
	switch d.Act {
	case Linear:
		copy(dz, dy)
	case Tanh:
		for i := range dz {
			dz[i] = dy[i] * dTanhFromOutput(c.y[i])
		}
	case Sigmoid:
		for i := range dz {
			dz[i] = dy[i] * dSigmoidFromOutput(c.y[i])
		}
	case ReLU:
		for i := range dz {
			if c.z[i] > 0 {
				dz[i] = dy[i]
			} else {
				dz[i] = 0
			}
		}
	}
	d.W.G.AddOuter(dz, c.x)
	mat.AxpyVec(d.B.G.Data, 1, dz)
	if d.ar != nil {
		return d.W.W.TMulVecTo(d.ar.alloc(d.In), dz)
	}
	return d.W.W.TMulVec(dz)
}
