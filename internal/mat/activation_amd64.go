package mat

// The activation kernels. Each lane runs, in packed form, the instruction
// sequence of the FMA path of math.Exp on amd64 (label avxfma in
// $GOROOT/src/math/exp_amd64.s), so each lane gets the bits the scalar
// call gives it; sigmoid and tanh compute every branch of their scalar
// code and blend by lane. A group of four that holds a lane the kernel
// does not cover (|x| > 708 or NaN for exp and sigmoid, NaN for tanh)
// runs in the Go loop, as do the len mod 4 tails.
//
// math.Exp takes its FMA sequence only when the runtime says the CPU has
// AVX and FMA, and GODEBUG=cpu.fma=off (or cpu.avx=off) says it does not,
// so the CPU's flags alone cannot tell which bits math.Exp gives. The
// kernels therefore run only if, at start-up, they reproduce the Go loops
// on the probe inputs, where math.Exp's FMA and non-FMA sequences
// disagree. The probe also catches a toolchain whose math.Exp or
// math.Tanh has changed.

// haveAVX2FMA reports whether this CPU can run the activation kernels: the
// AVX and OS checks of haveAVX, plus AVX2 and FMA.
var haveAVX2FMA = haveAVX && detectAVX2FMA()

// vectorActivations reports whether this process runs the activation
// kernels.
var vectorActivations = haveAVX2FMA && probeActivations()

func init() {
	if vectorActivations {
		expTo = expAVX
		sigmoidTo = sigmoidAVX
		tanhTo = tanhAVX
	}
}

func detectAVX2FMA() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const fma = 1 << 12
	if _, _, ecx, _ := cpuid(1, 0); ecx&fma == 0 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// probeInputs holds, for exp, sigmoid and tanh in turn, four inputs on
// which the FMA and the non-FMA sequence of math.Exp give different
// results.
var probeInputs = [3][4]float64{
	{-245.47585250910885, 6.494204237587171, -7.277529056761677, 558.4162087319223},
	{-5.186228075916091, -0.4096873576678456, -1.2351735841511802, -3.018751506733998},
	{-0.8898613883223694, -1.1551689464089256, 4.342704641517764, -0.8275585111348454},
}

// probeActivations reports whether each kernel gives its Go loop's bits on
// its probe inputs.
func probeActivations() bool {
	for i, k := range []struct {
		kernel func(dst, x []float64) int
		loop   func(dst, x []float64)
	}{{exp4, expGo}, {sigmoid4, sigmoidGo}, {tanh4, tanhGo}} {
		x := probeInputs[i][:]
		var got, want [4]float64
		if k.kernel(got[:], x) != len(x) {
			return false
		}
		k.loop(want[:], x)
		if got != want {
			return false
		}
	}
	return true
}

// exp4 sets dst[i] = math.Exp(x[i]) for the whole groups of four from the
// start of x, stopping before the first group that holds a NaN or an |x|
// above 708, and returns how many elements it set.
//
//go:noescape
func exp4(dst, x []float64) int

// sigmoid4 is exp4 for Sigmoid.
//
//go:noescape
func sigmoid4(dst, x []float64) int

// tanh4 is exp4 for math.Tanh; it stops only at a group that holds a NaN.
//
//go:noescape
func tanh4(dst, x []float64) int

func expAVX(dst, x []float64)     { runGroups(exp4, expGo, dst, x) }
func sigmoidAVX(dst, x []float64) { runGroups(sigmoid4, sigmoidGo, dst, x) }
func tanhAVX(dst, x []float64)    { runGroups(tanh4, tanhGo, dst, x) }

// runGroups runs kernel over x's whole groups of four, and loop over each
// group the kernel stops at and over the len(x) mod 4 tail.
func runGroups(kernel func(dst, x []float64) int, loop func(dst, x []float64), dst, x []float64) {
	dst = dst[:len(x)]
	n4 := len(x) &^ 3
	for i := 0; i < n4; {
		i += kernel(dst[i:n4], x[i:n4])
		if i < n4 {
			loop(dst[i:i+4], x[i:i+4])
			i += 4
		}
	}
	if n4 < len(x) {
		loop(dst[n4:], x[n4:])
	}
}
