package nn

import "math"

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update and leaves gradients untouched (callers
	// zero them between batches).
	Step(params []*Param)
}

// RMSProp is the optimiser the paper trains with (lr 1e-3, Appendix C).
type RMSProp struct {
	LR    float64
	Decay float64
	Eps   float64
	sq    map[*Param][]float64
}

// NewRMSProp returns an RMSProp optimizer with the standard decay 0.9.
func NewRMSProp(lr float64) *RMSProp {
	return &RMSProp{LR: lr, Decay: 0.9, Eps: 1e-8, sq: map[*Param][]float64{}}
}

// Step applies one RMSProp update.
func (o *RMSProp) Step(params []*Param) {
	for _, p := range params {
		s := o.sq[p]
		if s == nil {
			s = make([]float64, len(p.W.Data))
			o.sq[p] = s
		}
		for i := range p.W.Data {
			g := p.G.Data[i]
			s[i] = o.Decay*s[i] + (1-o.Decay)*g*g
			p.W.Data[i] -= o.LR * g / (math.Sqrt(s[i]) + o.Eps)
		}
	}
}

// Adam is Adam with bias correction.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	t                     int
	m, v                  map[*Param][]float64
}

// NewAdam returns an Adam optimizer with standard hyper-parameters.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: map[*Param][]float64{}, v: map[*Param][]float64{}}
}

// Step applies one Adam update.
func (o *Adam) Step(params []*Param) {
	o.t++
	c1 := 1 - math.Pow(o.Beta1, float64(o.t))
	c2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for _, p := range params {
		m := o.m[p]
		v := o.v[p]
		if m == nil {
			m = make([]float64, len(p.W.Data))
			v = make([]float64, len(p.W.Data))
			o.m[p] = m
			o.v[p] = v
		}
		for i := range p.W.Data {
			g := p.G.Data[i]
			m[i] = o.Beta1*m[i] + (1-o.Beta1)*g
			v[i] = o.Beta2*v[i] + (1-o.Beta2)*g*g
			p.W.Data[i] -= o.LR * (m[i] / c1) / (math.Sqrt(v[i]/c2) + o.Eps)
		}
	}
}
