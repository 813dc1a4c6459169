package baselines

import (
	"context"
	"math/rand"

	"repro/internal/dp"
	"repro/internal/grid"
	"repro/internal/nn"
	"repro/internal/timeseries"
)

// LGANDP follows Zhang et al. (FGCS 2023): an LSTM-based GAN whose
// training objective is perturbed with Laplace noise so the generator is
// differentially private, then used to synthesise the release. We keep the
// cited structure — LSTM generator, LSTM discriminator, noise injected
// into the discriminator's gradients each step, budget split over
// iterations — at a scale that runs on CPU. The generator is conditioned
// per pillar by seeding with that pillar's (noisy) history.
type LGANDP struct {
	// Iterations is the number of adversarial update rounds.
	Iterations int
	// Hidden sizes both networks.
	Hidden int
	// Window is the sequence length trained on.
	Window int
}

// NewLGANDP returns the baseline with CPU-friendly defaults.
func NewLGANDP() *LGANDP { return &LGANDP{Iterations: 30, Hidden: 8, Window: 6} }

// Name implements Algorithm.
func (*LGANDP) Name() string { return "lgan-dp" }

// Release implements Algorithm. The GAN training loop checks the context
// every iteration and the synthesis loop every row, so the slowest
// baseline cancels promptly.
func (g *LGANDP) Release(ctx context.Context, in Input, epsilon float64, seed int64) (*grid.Matrix, error) {
	truth := in.Truth()
	rng := rand.New(rand.NewSource(seed))
	lap := dp.NewLaplace(rng)
	T := truth.Ct

	// Scale normalisation for stable GAN training.
	maxVal := truth.Max()
	if maxVal == 0 {
		maxVal = 1
	}

	// Generator: window -> next value. Discriminator: window -> realness.
	gen := nn.NewRecurrentModel("lgan.gen", g.Window, 0, g.Hidden,
		nn.NewLSTMCell("lgan.gen.cell", g.Hidden, g.Hidden, rng), rng)
	disc := nn.NewRecurrentModel("lgan.disc", g.Window+1, 0, g.Hidden,
		nn.NewLSTMCell("lgan.disc.cell", g.Hidden, g.Hidden, rng), rng)
	genOpt := nn.NewAdam(5e-3)
	discOpt := nn.NewAdam(5e-3)

	// Real training windows from normalised pillars.
	var real []timeseries.Window
	for y := 0; y < truth.Cy; y++ {
		for x := 0; x < truth.Cx; x++ {
			p := truth.Pillar(x, y)
			for i := range p {
				p[i] /= maxVal
			}
			real = append(real, timeseries.SlidingWindows(p, g.Window)...)
		}
	}
	if len(real) == 0 {
		return nil, errNoWindows
	}

	// Budget split: 80% trains the GAN (split over iterations, since the
	// discriminator touches true data every round), 20% sanitises the
	// per-pillar seed windows used at synthesis time (split over the
	// Window timestamps; cells compose in parallel).
	epsTrain := 0.8 * epsilon
	epsSeed := 0.2 * epsilon
	epsIter := epsTrain / float64(g.Iterations)
	// Per-window influence on the normalised discriminator loss is
	// bounded by 1 after clipping; noise scale follows.
	gradClip := 1.0
	noiseScale := dp.Scale(2*gradClip, epsIter)

	discParams := disc.Params()
	genParams := gen.Params()
	for it := 0; it < g.Iterations; it++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// --- Discriminator step on one real and one generated window.
		rw := real[rng.Intn(len(real))]
		realSeq := append(append([]float64{}, rw.Input...), rw.Target)
		fakeSeq := g.sample(gen, rw.Input)

		nn.ZeroGrads(discParams)
		// Least-squares GAN objective: D(real)→1, D(fake)→0.
		dr, cr := disc.Forward(realSeq, nil)
		disc.Backward(cr, 2*(dr-1))
		df, cf := disc.Forward(fakeSeq, nil)
		disc.Backward(cf, 2*df)
		nn.ClipGrads(discParams, gradClip)
		// DP: perturb the gradients that depend on true data.
		for _, p := range discParams {
			for i := range p.G.Data {
				p.G.Data[i] += lap.Sample(noiseScale) / float64(len(p.G.Data))
			}
		}
		discOpt.Step(discParams)

		// --- Generator step: fool the discriminator (no fresh true data;
		// post-processing of the DP discriminator).
		nn.ZeroGrads(genParams)
		pred, cg := gen.Forward(rw.Input, nil)
		seq := append(append([]float64{}, rw.Input...), pred)
		dg, _ := disc.Forward(seq, nil)
		// d/dpred of (D(seq)-1)² via finite difference through D's last input.
		const h = 1e-4
		seq[len(seq)-1] = pred + h
		dgp, _ := disc.Forward(seq, nil)
		dDdPred := (dgp - dg) / h
		gen.Backward(cg, 2*(dg-1)*dDdPred)
		nn.ClipGrads(genParams, gradClip)
		genOpt.Step(genParams)
	}

	// Synthesise: roll the generator forward from a Laplace-sanitised seed
	// per pillar.
	seedScale := dp.Scale(in.CellSensitivity/maxVal, epsSeed/float64(g.Window))
	out := grid.NewMatrix(truth.Cx, truth.Cy, T)
	for y := 0; y < truth.Cy; y++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for x := 0; x < truth.Cx; x++ {
			seed := make([]float64, g.Window)
			p := truth.Pillar(x, y)
			for i := 0; i < g.Window && i < len(p); i++ {
				seed[i] = p[i]/maxVal + lap.Sample(seedScale)
			}
			vals := nn.Rollout(gen, seed, nil, T, nil)
			for t := range vals {
				// The generator works in [0, 1]-normalised space; clamp so
				// an unstable GAN cannot release unbounded values.
				v := vals[t]
				if v < 0 {
					v = 0
				}
				if v > 1.5 {
					v = 1.5
				}
				out.Set(x, y, t, v*maxVal)
			}
		}
	}
	clampNonNegative(out)
	return out, nil
}

// sample produces one generated sequence continuing the seed window.
func (g *LGANDP) sample(gen nn.Model, seedWindow []float64) []float64 {
	pred := nn.Predict(gen, seedWindow, nil)
	return append(append([]float64{}, seedWindow...), pred)
}
