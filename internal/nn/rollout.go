package nn

import "fmt"

// Rollout autoregressively extends seed by horizon steps under a fixed
// context vector. The model first predicts from the last WindowSize values
// of seed; each prediction p is then passed through feed (nil keeps p as
// it is), and the fed value is both the step's output and the value the
// window shifts in for the next prediction.
//
// Every output is bit-identical to Predict on the window the loop has
// shifted to. Rollout is the one-sequence case of Rollouts.
func Rollout(m Model, seed, ctx []float64, horizon int, feed func(float64) float64) []float64 {
	return Rollouts(m, [][]float64{seed}, [][]float64{ctx}, horizon, feed)[0]
}

// Rollouts rolls several sequences forward at once: out[i] is
// Rollout(m, seeds[i], ctxs[i], horizon, feed), bit for bit, for every i.
// ctxs may be nil, for no context anywhere. The attentive GRU advances
// all the sequences in lockstep, one block pass per step (see rollNext);
// every other model rolls them in turn by running Predict on each
// shifted window: the transformer adds a positional encoding per
// position, so a shifted row is a different input, and a recurrent
// model's state depends on the whole window from its first element.
func Rollouts(m Model, seeds, ctxs [][]float64, horizon int, feed func(float64) float64) [][]float64 {
	ws := m.WindowSize()
	out := make([][]float64, len(seeds))
	for i, seed := range seeds {
		if len(seed) < ws {
			panic(fmt.Sprintf("nn: rollout seed %d shorter than window %d", len(seed), ws))
		}
		out[i] = make([]float64, horizon)
	}
	if len(seeds) == 0 || horizon == 0 {
		return out
	}
	if am, ok := m.(*AttentiveGRUModel); ok {
		am.rollout(seeds, ctxs, out, feed)
		return out
	}
	for i, seed := range seeds {
		var ctx []float64
		if ctxs != nil {
			ctx = ctxs[i]
		}
		window := append([]float64(nil), seed[len(seed)-ws:]...)
		for step := range out[i] {
			p := Predict(m, window, ctx)
			if feed != nil {
				p = feed(p)
			}
			out[i][step] = p
			copy(window, window[1:])
			window[ws-1] = p
		}
	}
	return out
}
