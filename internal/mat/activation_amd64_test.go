package mat

import (
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// expSequence is math.Exp on amd64 for |x| <= 708, written out in Go: the
// FMA path of $GOROOT/src/math/exp_amd64.s when fused is set, its SSE path
// otherwise.
func expSequence(x float64, fused bool) float64 {
	mulAdd := func(a, b, c float64) float64 {
		if fused {
			return math.FMA(a, b, c)
		}
		return a*b + c
	}
	n := math.RoundToEven(1.4426950408889634073599246810018920 * x)
	r := mulAdd(-n, 0.69314718055966295651160180568695068359375, x)
	r = mulAdd(-n, 0.28235290563031577122588448175013436025525412068e-12, r)
	r *= 0.0625
	p := 2.4801587301587301587e-5
	for _, c := range []float64{1.9841269841269841270e-4, 1.3888888888888888889e-3, 8.3333333333333333333e-3,
		4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1.0} {
		p = mulAdd(p, r, c)
	}
	r *= p
	for i := 0; i < 3; i++ {
		r *= r + 2
	}
	r = mulAdd(r, r+2, 1)
	return r * math.Float64frombits(uint64(int64(n)+1023)<<52)
}

// TestActivationProbe checks that the activation kernels run exactly when
// the CPU can run them and math.Exp takes the FMA sequence they reproduce,
// and that every probe input tells that sequence from the SSE one, so a
// process whose math.Exp takes the SSE sequence (GODEBUG=cpu.fma=off)
// stands the kernels down. It logs which path this process runs.
func TestActivationProbe(t *testing.T) {
	t.Logf("vector activations: %v (CPU has AVX2 and FMA: %v)", vectorActivations, haveAVX2FMA)
	tanhVia := func(x float64, exp func(float64) float64) float64 {
		return math.Copysign(1-2/(exp(2*math.Abs(x))+1), x) // tanh.go for 0.625 <= |x| <= 0.5·MAXLOG
	}
	mathFused := true
	for i, f := range []func(x float64, exp func(float64) float64) float64{
		func(x float64, exp func(float64) float64) float64 { return exp(x) },
		func(x float64, exp func(float64) float64) float64 {
			if x >= 0 {
				return 1 / (1 + exp(-x))
			}
			e := exp(x)
			return e / (1 + e)
		},
		tanhVia,
	} {
		for _, x := range probeInputs[i] {
			fused := f(x, func(v float64) float64 { return expSequence(v, true) })
			sse := f(x, func(v float64) float64 { return expSequence(v, false) })
			if fused == sse {
				t.Errorf("probe input %v of kernel %d gives %v on both sequences", x, i, fused)
			}
			if i == 2 && (math.Abs(x) < 0.625 || math.Abs(x) > 44) {
				t.Errorf("tanh probe input %v is outside the exponential branch", x)
			}
			if math.Exp(x) != expSequence(x, true) {
				mathFused = false
			}
		}
	}
	if want := haveAVX2FMA && mathFused; vectorActivations != want {
		t.Fatalf("vector activations %v; want %v (CPU has AVX2 and FMA: %v, math.Exp fused: %v)",
			vectorActivations, want, haveAVX2FMA, mathFused)
	}
	if haveAVX2FMA {
		var got [4]float64
		if exp4(got[:], probeInputs[0][:]) != 4 {
			t.Fatal("exp4 refused the probe inputs")
		}
		for j, x := range probeInputs[0] {
			if want := expSequence(x, true); got[j] != want {
				t.Errorf("exp4(%v) = %v, want the FMA sequence's %v", x, got[j], want)
			}
		}
	}
}

// TestActivationsStandDownWithoutFMA runs TestActivationProbe in a child
// process whose math.Exp takes its SSE sequence: there the kernels must
// not run.
func TestActivationsStandDownWithoutFMA(t *testing.T) {
	if !haveAVX2FMA {
		t.Skip("this CPU cannot run the activation kernels")
	}
	if strings.Contains(os.Getenv("GODEBUG"), "cpu.fma=off") {
		t.Skip("already running without FMA")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestActivationProbe$", "-test.v")
	cmd.Env = append(os.Environ(), "GODEBUG=cpu.fma=off")
	out, err := cmd.CombinedOutput()
	if err != nil || !strings.Contains(string(out), "vector activations: false") {
		t.Fatalf("child under GODEBUG=cpu.fma=off: %v\n%s", err, out)
	}
}
