package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/dp"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/quadtree"
	"repro/internal/query"
	"repro/internal/timeseries"
)

// mreQueries is the number of queries per class behind release_mre_pct,
// the paper's 300.
const mreQueries = 300

//go:embed digests.json
var digestsJSON []byte

// committedDigests maps a seed to the digest of the release workload's
// release at that seed, as committed with the benchmark.
func committedDigests() map[int64]string {
	var raw map[string]string
	if err := json.Unmarshal(digestsJSON, &raw); err != nil {
		panic(fmt.Sprintf("digests.json: %v", err))
	}
	out := make(map[int64]string, len(raw))
	for k, v := range raw {
		s, err := strconv.ParseInt(k, 10, 64)
		if err != nil {
			panic(fmt.Sprintf("digests.json: seed %q: %v", k, err))
		}
		out[s] = v
	}
	return out
}

// caDataset is every workload's meter data: the CA spec, Uniform
// layout, 32×32 grid, TTrain + horizon days, households placed and
// series drawn from the workload seed.
func caDataset(seed int64) *timeseries.Dataset {
	o := experiments.Bench()
	return datasets.CA.GenerateDaily(datasets.Uniform, o.Cx, o.Cy, o.TTrain+o.Horizon, seed)
}

// releaseConfig is STPT at experiments.Bench() options with two workers.
// Workers is pinned, not taken from the machine: training regroups
// float sums by worker count, and the committed digests assume 2.
func releaseConfig(model core.ModelKind, seed int64) core.Config {
	cfg := experiments.Bench().STPTConfig(datasets.CA)
	cfg.Model = model
	cfg.Workers = 2
	cfg.Seed = seed
	return cfg
}

// digest fingerprints a released matrix bit for bit.
func digest(m *grid.Matrix) string {
	h := sha256.New()
	var buf [8]byte
	for _, n := range []int{m.Cx, m.Cy, m.Ct} {
		binary.LittleEndian.PutUint64(buf[:], uint64(n))
		h.Write(buf[:])
	}
	for _, v := range m.Data() {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// releaseRun is what the release phase measured.
type releaseRun struct {
	res   *core.Result
	times []timed // RunContext wall times, s
	mre   float64 // first release's MRE averaged over the three query classes, %
}

// releasePhase runs core.RunContext on d until budget has elapsed and
// at least minN releases completed, checking every release: its digest
// against want (or, without one, against the run's first release), the
// accountant's total against cfg.EpsTotal(), and every cell finite and
// non-negative. With tracing on, each release is followed by a replay
// of its public layer calls (see replayRelease).
func (b *bench) releasePhase(d *timeseries.Dataset, cfg core.Config, minN int, budget time.Duration, want string) (*releaseRun, error) {
	out := &releaseRun{}
	first := ""
	var replays []replayStages
	var allocMB, gcs []float64
	start := time.Now()
	for id := int64(0); ; id++ {
		// Stop once the budget is spent with minN undisturbed releases;
		// steal bursts may stretch the run to twice the budget, and
		// failing releases may not stretch it further.
		elapsed := time.Since(start)
		quietN := 0
		for _, t := range out.times {
			if !b.mon.disturbed(t.from, t.to) {
				quietN++
			}
		}
		if elapsed >= budget && quietN >= minN && len(out.times) >= minN ||
			elapsed >= 2*budget && id >= int64(minN) {
			break
		}
		var ms0, ms1 runtime.MemStats
		if b.tr != nil {
			runtime.ReadMemStats(&ms0)
		}
		t0 := time.Now()
		res, err := core.RunContext(context.Background(), d, cfg)
		t1 := time.Now()
		b.tried(1)
		if err != nil {
			b.fail("release %d: %v", id, err)
			continue
		}
		parent := b.tr.Add("core.RunContext", id, -1, t0, t1, "")
		out.times = append(out.times, timed{t1.Sub(t0).Seconds(), t0, t1})
		if b.tr != nil {
			runtime.ReadMemStats(&ms1)
			allocMB = append(allocMB, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
			gcs = append(gcs, float64(ms1.NumGC-ms0.NumGC))
		}
		b.checkRelease(id, res, cfg, &first, want)
		if out.res == nil {
			out.res = res
			var mres map[query.Class]float64
			b.tr.Time("query.EvaluateAll", id, parent, func() {
				mres = query.EvaluateAll(res.Truth, res.Sanitized, mreQueries, cfg.Seed)
			})
			out.mre = (mres[query.Random] + mres[query.Small] + mres[query.Large]) / 3
			b.layer["query.mre_random_pct"] = mres[query.Random]
		}
		if b.tr != nil {
			st, err := replayRelease(d, cfg, res, b.tr, id, parent)
			if err != nil {
				b.fail("release %d replay: %v", id, err)
				continue
			}
			st.run = t1.Sub(t0)
			replays = append(replays, st)
		}
	}
	if out.res == nil {
		return nil, fmt.Errorf("no release succeeded")
	}
	rs := median(b.quiet("release_s", out.times, minN))
	b.e2e["release_s"] = rs
	b.e2e["release_mre_pct"] = out.mre
	b.layer["trace.release_s"] = rs
	if b.tr != nil {
		b.releaseLayers(replays, allocMB, gcs, out.res, cfg)
	}
	return out, nil
}

// checkRelease counts a wrong release as a failed operation.
func (b *bench) checkRelease(id int64, res *core.Result, cfg core.Config, first *string, want string) {
	dg := digest(res.Sanitized)
	switch {
	case want != "" && dg != want:
		b.fail("release %d digest %s differs from the committed %s", id, dg[:16], want[:16])
	case want == "" && *first != "" && dg != *first:
		b.fail("release %d digest %s differs from this run's first release %s", id, dg[:16], (*first)[:16])
	}
	if *first == "" {
		*first = dg
	}
	if got := res.Accountant.TotalEpsilon(); math.Abs(got-cfg.EpsTotal()) > 1e-9*cfg.EpsTotal() {
		b.fail("release %d accountant total ε %v, configured %v", id, got, cfg.EpsTotal())
	}
	for i, v := range res.Sanitized.Data() {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			b.fail("release %d cell %d is %v", id, i, v)
			break
		}
	}
}

// replayStages times one replay of a release's public layer calls.
type replayStages struct {
	run, normalize, build, sanitize, fit, rollout, quantize time.Duration
	samples, partitions, calls                              int
}

func (s replayStages) attributed() time.Duration {
	return s.normalize + s.build + s.sanitize + s.fit + s.rollout + s.quantize
}

// replayRelease re-runs, from outside core, the public calls one STPT
// release makes on the same dataset and config: clip and normalise,
// quadtree.Build and Sanitize, nn.Trainer.FitContext over the
// SlidingWindows of the tree series, nn.Predict once per rolled-out
// cell and step, and QuantizeModeWorkers on the real run's pattern.
// core keeps the stages private, so this is how the benchmark splits
// core.run_s without changing the program. The replay's counts must
// match the real run's Result exactly, or the replay has drifted.
func replayRelease(d *timeseries.Dataset, cfg core.Config, res *core.Result, tr *Tracer, id int64, parent int) (replayStages, error) {
	var st replayStages
	var nd *timeseries.Dataset
	_, st.normalize = tr.Time("timeseries.normalize", id, parent, func() {
		work := d
		if cfg.ClipFactor > 0 {
			work = d.Clone()
			work.Clip(cfg.ClipFactor)
		}
		nd = timeseries.FitNormalizerWorkers(work, cfg.Workers).Apply(work)
	})
	var tree *quadtree.Tree
	var err error
	_, st.build = tr.Time("quadtree.Build", id, parent, func() {
		tree, err = quadtree.Build(nd, quadtree.Params{Cx: nd.Cx, Cy: nd.Cy, Depth: cfg.Depth, TTrain: cfg.TTrain})
	})
	if err != nil {
		return st, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	_, st.sanitize = tr.Time("quadtree.Sanitize", id, parent, func() {
		tree.Sanitize(dp.NewLaplace(rng), cfg.EpsPattern)
	})

	horizon := res.Sanitized.Ct
	if cfg.Model != core.ModelPersistence {
		var samples []timeseries.Window
		for _, lvl := range tree.Levels {
			for _, nb := range lvl.Neighborhoods {
				ctx := []float64{
					(float64(nb.X0) + float64(nb.X1-nb.X0+1)/2) / float64(nd.Cx),
					(float64(nb.Y0) + float64(nb.Y1-nb.Y0+1)/2) / float64(nd.Cy),
					float64(nb.X1-nb.X0+1) / float64(nd.Cx),
				}
				for _, w := range timeseries.SlidingWindows(nb.Series, cfg.WindowSize) {
					m := windowLevel(w.Input)
					for i := range w.Input {
						w.Input[i] /= m
					}
					w.Target /= m
					w.Ctx = ctx
					samples = append(samples, w)
				}
			}
		}
		st.samples = len(samples)
		model := nn.NewAttentiveGRUModel("replay", cfg.WindowSize, 3, cfg.EmbedDim, cfg.Hidden, rng)
		trainer := &nn.Trainer{Model: model, Opt: nn.NewRMSProp(cfg.LR), Cfg: cfg.Train, Rng: rng, Workers: cfg.Workers}
		_, st.fit = tr.Time("nn.FitContext", id, parent, func() {
			_, err = trainer.FitContext(context.Background(), samples)
		})
		if err != nil {
			return st, err
		}
		_, st.rollout = tr.Time("nn.Predict", id, parent, func() {
			st.calls = replayRollout(model, res.Pattern.TrainEstimates, cfg, horizon)
		})
	}
	_, st.quantize = tr.Time("core.QuantizeModeWorkers", id, parent, func() {
		st.partitions = len(core.QuantizeModeWorkers(res.Pattern.Pattern, cfg.QuantLevels, cfg.Quant, cfg.Workers))
	})
	if st.samples != res.Pattern.Samples {
		return st, fmt.Errorf("replay built %d training windows, the release trained on %d", st.samples, res.Pattern.Samples)
	}
	if st.partitions != res.Partitions {
		return st, fmt.Errorf("replay quantized %d partitions, the release has %d", st.partitions, res.Partitions)
	}
	return st, nil
}

// windowLevel is the per-window normalisation level STPT trains on.
func windowLevel(w []float64) float64 {
	var m float64
	for _, v := range w {
		m += v
	}
	return m/float64(len(w)) + 1e-3
}

// replayRollout rolls every cell's sanitised training path forward with
// nn.Predict over the horizon, rows sharded across cfg.Workers shadow
// clones as the real rollout does, and returns the number of calls.
func replayRollout(model nn.Model, est *grid.Matrix, cfg core.Config, horizon int) int {
	clones := []nn.Model{model}
	if sc, ok := model.(nn.ShadowCloner); ok && cfg.Workers > 1 {
		clones = clones[:0]
		for range parallel.Shards(est.Cy, cfg.Workers) {
			clones = append(clones, sc.ShadowClone())
		}
	}
	ws := cfg.WindowSize
	leafFrac := float64(est.Cx>>cfg.Depth) / float64(est.Cx)
	parallel.ForEachShard(len(clones), est.Cy, func(s int, r parallel.Range) {
		m := clones[s]
		shape := make([]float64, ws)
		for y := r.Lo; y < r.Hi; y++ {
			for x := 0; x < est.Cx; x++ {
				seed := est.Pillar(x, y)
				level := windowLevel(seed[len(seed)-ws:])
				for j, v := range seed[len(seed)-ws:] {
					shape[j] = v / level
				}
				ctx := []float64{(float64(x) + 0.5) / float64(est.Cx), (float64(y) + 0.5) / float64(est.Cy), leafFrac}
				for i := 0; i < horizon; i++ {
					p := math.Max(0, math.Min(nn.Predict(m, shape, ctx), 3))
					copy(shape, shape[1:])
					shape[ws-1] = p
				}
			}
		}
	})
	return est.Cx * est.Cy * horizon
}

// releaseLayers turns the replays into the nn, core, quadtree and
// timeseries metrics. Stage times are means over the run's releases, so
// core.unattributed_s plus the replayed stages sums to core.run_s.
func (b *bench) releaseLayers(rs []replayStages, allocMB, gcs []float64, res *core.Result, cfg core.Config) {
	if len(rs) == 0 {
		return
	}
	avg := func(f func(replayStages) time.Duration) float64 {
		var s float64
		for _, r := range rs {
			s += f(r).Seconds()
		}
		return s / float64(len(rs))
	}
	fit := avg(func(r replayStages) time.Duration { return r.fit })
	roll := avg(func(r replayStages) time.Duration { return r.rollout })
	L := b.layer
	L["core.run_s"] = avg(func(r replayStages) time.Duration { return r.run })
	L["timeseries.normalize_s"] = avg(func(r replayStages) time.Duration { return r.normalize })
	L["quadtree.build_s"] = avg(func(r replayStages) time.Duration { return r.build })
	L["quadtree.sanitize_s"] = avg(func(r replayStages) time.Duration { return r.sanitize })
	L["nn.fit_s"] = fit
	L["core.quantize_s"] = avg(func(r replayStages) time.Duration { return r.quantize })
	L["core.unattributed_s"] = avg(func(r replayStages) time.Duration { return r.run - r.attributed() })
	L["nn.samples"] = float64(rs[0].samples)
	L["nn.rollout_calls"] = float64(rs[0].calls)
	if rs[0].samples > 0 {
		L["nn.fit_us_per_sample_epoch"] = fit * 1e6 / float64(rs[0].samples*cfg.Train.Epochs)
	}
	if rs[0].calls > 0 {
		L["nn.predict_us"] = roll * 1e6 / float64(rs[0].calls)
	}
	L["core.partitions"] = float64(res.Partitions)
	L["core.attempts"] = float64(res.Recovery.Attempts)
	L["core.alloc_mb"] = median(allocMB)
	L["core.gc_cycles"] = median(gcs)
	L["query.evaluate_s"] = median(b.tr.Durations("query.EvaluateAll")) / 1e3
}

// matLayer times mat.Mul at the model's batch×embed · embed×hidden
// shape; flops and bytes follow from the shape.
func (b *bench) matLayer(cfg core.Config) {
	m, k, n := cfg.Train.BatchSize, cfg.EmbedDim, cfg.Hidden
	rng := rand.New(rand.NewSource(b.seed))
	a, w, out := mat.New(m, k), mat.New(k, n), mat.New(m, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64()
	}
	var per []float64
	for rep := 0; rep < 5; rep++ {
		calls := 0
		t0 := time.Now()
		for time.Since(t0) < 20*time.Millisecond {
			for i := 0; i < 64; i++ {
				out.Mul(a, w)
			}
			calls += 64
		}
		t1 := time.Now()
		b.tr.Add("mat.Mul", int64(rep), -1, t0, t1, strconv.Itoa(calls))
		per = append(per, float64(t1.Sub(t0).Nanoseconds())/float64(calls))
	}
	b.layer["mat.mul_ns"] = median(per)
	b.layer["mat.mul_flops"] = float64(2 * m * k * n)
	b.layer["mat.mul_bytes"] = float64(8 * (m*k + k*n + m*n))
}

// runRelease is the publisher's workload: STPT releases of the CA
// dataset at Bench options with the attentive-GRU. The released matrix
// is then handed to one stpt-serve replica for a short query check, and
// a short back-to-back continual-release probe follows.
func (b *bench) runRelease() error {
	var d *timeseries.Dataset
	var setups []timed
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		d = caDataset(b.seed)
		setups = append(setups, timed{since(t0), t0, time.Now()})
	}
	b.e2e["setup_s"] = median(b.quiet("setup_s", setups, 3))

	cfg := releaseConfig(core.ModelAttentiveGRU, b.seed)
	minN := 3
	if b.tr != nil {
		minN = 2
	}
	rr, err := b.releasePhase(d, cfg, minN, time.Duration(b.seconds*float64(time.Second)), committedDigests()[b.seed])
	if err != nil {
		return err
	}
	if b.tr != nil {
		b.matLayer(cfg)
	}
	rss := peakRSSMB(0)
	replicaRSS, err := b.serveRelease(rr.res.Sanitized, 1000, 2*time.Second, time.Second)
	if err != nil {
		return err
	}
	b.e2e["peak_rss_mb"] = rss + replicaRSS
	return b.streamProbe()
}

// printDigests computes the release workload's digest for each seed in
// lo-hi, for committing to digests.json.
func printDigests(span string) error {
	lo, hi, ok := strings.Cut(span, "-")
	if !ok {
		hi = lo
	}
	a, err1 := strconv.ParseInt(lo, 10, 64)
	z, err2 := strconv.ParseInt(hi, 10, 64)
	if err1 != nil || err2 != nil || z < a {
		return fmt.Errorf("--print-digests %q: want lo-hi", span)
	}
	out := map[string]string{}
	for s := a; s <= z; s++ {
		res, err := core.RunContext(context.Background(), caDataset(s), releaseConfig(core.ModelAttentiveGRU, s))
		if err != nil {
			return err
		}
		out[strconv.FormatInt(s, 10)] = digest(res.Sanitized)
		fmt.Fprintf(os.Stderr, "seed %d: random-class MRE %.3f%%\n", s, query.EvaluateAll(res.Truth, res.Sanitized, mreQueries, s)[query.Random])
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
