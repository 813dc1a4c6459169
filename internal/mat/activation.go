package mat

import "math"

// The network's activations and softmax exponentials run through these
// variables. They hold the Go loops; on amd64, init in activation_amd64.go
// swaps in AVX2+FMA kernels once, before main runs, when the CPU has them
// and a probe finds that they give math.Exp's, Sigmoid's and math.Tanh's
// bits. The Go loops are the fallback on every other CPU and GOARCH and
// the reference the kernels are tested against.
var (
	expTo     = expGo     // ExpTo
	sigmoidTo = sigmoidGo // SigmoidTo
	tanhTo    = tanhGo    // TanhTo
)

// ExpTo sets dst[i] = math.Exp(x[i]) bit for bit. dst may be x itself but
// must not otherwise overlap it.
func ExpTo(dst, x []float64) {
	checkLen(len(dst), len(x), len(x))
	expTo(dst, x)
}

// SigmoidTo sets dst[i] = Sigmoid(x[i]) bit for bit. dst may be x itself
// but must not otherwise overlap it.
func SigmoidTo(dst, x []float64) {
	checkLen(len(dst), len(x), len(x))
	sigmoidTo(dst, x)
}

// TanhTo sets dst[i] = math.Tanh(x[i]) bit for bit. dst may be x itself but
// must not otherwise overlap it.
func TanhTo(dst, x []float64) {
	checkLen(len(dst), len(x), len(x))
	tanhTo(dst, x)
}

// Sigmoid returns the logistic function 1/(1+e^−x), split by sign so that
// the exponential never overflows.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

func expGo(dst, x []float64) {
	dst = dst[:len(x)]
	for i, v := range x {
		dst[i] = math.Exp(v)
	}
}

func sigmoidGo(dst, x []float64) {
	dst = dst[:len(x)]
	for i, v := range x {
		dst[i] = Sigmoid(v)
	}
}

func tanhGo(dst, x []float64) {
	dst = dst[:len(x)]
	for i, v := range x {
		dst[i] = math.Tanh(v)
	}
}
