package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/grid"
	"repro/internal/query"
)

// Serving limits: a ladder rung is sustained when p99 latency from the
// due time stays within 20 ms, nothing fails, and the generator's
// lateness grows by at most 5 ms from the first to the last quarter.
var serveLimits = Limits{P99Ms: 20, LagMs: 5}

// ladder is the fixed rate ladder max_qps is searched on: 1000 req/s up
// to 16k in 5% steps.
var ladder = geometricLadder(1000, 16000, 1.05)

// serveRefRate is the serve workload's reference rate. Through the gate
// a 2-core machine sustains ~3.5k req/s when quiet but only ~1.7k in its
// slow spells, and a rate above the knee of the moment grows a backlog
// that turns a 1 ms median into seconds; 1000 stays below both.
const serveRefRate = 1000

// directLadderFrom is where the max_qps search starts against a single
// replica queried directly, which sustains about twice the gated rate.
const directLadderFrom = 4000

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 7

// loadMatrixFile reads a matrix CSV the way stpt-serve does.
func loadMatrixFile(path string) (*grid.Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return datasets.LoadMatrixCSV(f)
}

// queryMix is the analysts' traffic: perClass queries of each of the
// paper's small, large and random classes over m, shuffled, each with
// the answer the benchmark's own grid.TileIndex gives on the same file.
func queryMix(seed int64, name string, m *grid.Matrix, perClass int) ([]Request, []grid.Query) {
	var qs []grid.Query
	for _, c := range query.Classes() {
		qs = append(qs, query.GenerateSeeded(query.ClassSeed(seed, c), c, m.Cx, m.Cy, m.Ct, perClass)...)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	ti := grid.NewTileIndex(m)
	reqs := make([]Request, len(qs))
	for i, q := range qs {
		reqs[i] = Request{
			Path: fmt.Sprintf("/query?d=%s&x0=%d&x1=%d&y0=%d&y1=%d&t0=%d&t1=%d", name, q.X0, q.X1, q.Y0, q.Y1, q.T0, q.T1),
			Want: ti.RangeSum(q), Check: true,
		}
	}
	return reqs, qs
}

// serveTier is the serving processes of one run.
type serveTier struct {
	replicas []*Daemon
	gate     *Daemon // nil: load goes straight to the first replica
}

func (t *serveTier) target() *Daemon {
	if t.gate != nil {
		return t.gate
	}
	return t.replicas[0]
}

func (t *serveTier) stop() {
	stopAll(t.replicas)
	t.gate.Stop()
}

func (t *serveTier) peakRSSMB() float64 {
	var mb float64
	for _, d := range t.replicas {
		mb += d.PeakRSSMB()
	}
	if t.gate != nil {
		mb += t.gate.PeakRSSMB()
	}
	return mb
}

// startTier starts n stpt-serve replicas over the release file — scrub
// off, so no scrub pass lands in a timed window — and, with gated, an
// stpt-gate in front of them, returning once every /readyz answers 200.
func (b *bench) startTier(name, path string, n int, gated bool, extra ...string) (*serveTier, error) {
	t := &serveTier{}
	for i := 0; i < n; i++ {
		args := append([]string{"-load", name + "=" + path, "-scrub-interval", "0"}, extra...)
		d, err := startDaemon(filepath.Join(b.bin, "stpt-serve"), fmt.Sprintf("replica%d", i), filepath.Join(b.work, "logs"), args...)
		if err != nil {
			t.stop()
			return nil, err
		}
		t.replicas = append(t.replicas, d)
	}
	for _, d := range t.replicas {
		if err := d.waitReady(30 * time.Second); err != nil {
			t.stop()
			return nil, err
		}
	}
	if gated {
		args := []string{}
		for _, d := range t.replicas {
			args = append(args, "-replica", d.URL)
		}
		g, err := startDaemon(filepath.Join(b.bin, "stpt-gate"), "gate", filepath.Join(b.work, "logs"), args...)
		if err != nil {
			t.stop()
			return nil, err
		}
		t.gate = g
		if err := g.waitReady(30 * time.Second); err != nil {
			t.stop()
			return nil, err
		}
	}
	return t, nil
}

// measureQueries drives the tier with the query mix: a short warm-up,
// an open-loop Poisson run at refRate for refDur (query_p50_ms and the
// serve/gate/client layers), then — traced runs only — the max_qps
// search on the ladder from ladderFrom with rungs of rungDur.
func (b *bench) measureQueries(t *serveTier, reqs []Request, refRate float64, refDur time.Duration, ladderFrom float64, rungDur time.Duration) error {
	conns := runtime.NumCPU()
	b.env["load_connections"] = conns
	b.env["query_rate_ref"] = refRate
	l := newLoader(t.target().URL, conns, reqs, b.tr)
	defer l.Close()
	rng := rand.New(rand.NewSource(b.seed))
	b.countWrong(l.Run(poissonSchedule(rng, refRate, 300*time.Millisecond)))

	procs := t.replicas
	if t.gate != nil {
		procs = append([]*Daemon{t.gate}, procs...)
	}
	urls := make([]string, len(procs))
	for i, d := range procs {
		urls[i] = d.URL
	}
	before, err := scrapeAll(probeClient, urls)
	if err != nil {
		return err
	}
	samples := l.Run(poissonSchedule(rng, refRate, refDur))
	after, err := scrapeAll(probeClient, urls)
	if err != nil {
		return err
	}
	st := summarize(b.quietSamples(l, samples), time.Second)
	b.tried(len(samples))
	b.e2e["query_p50_ms"] = st.P50Ms
	b.layer["client.query_p99_ms"] = st.P99Ms
	b.layer["trace.query_p50_ms"] = st.P50Ms
	b.queryLayers(samples, st, before, after, t.gate != nil)
	// Peak RSS at the reference load: the ladder's overloaded rungs pile
	// up queued requests, and their peak would measure the overload.
	b.rss = t.peakRSSMB()
	return b.maxQPS(l, ladderFrom, rungDur)
}

// maxQPS searches the ladder upwards from rate `start` with rungs of
// rungDur and reports, as client.max_qps, the throughput achieved on the
// highest rung that met every limit.
func (b *bench) maxQPS(l *Loader, start float64, rungDur time.Duration) error {
	if b.tr == nil {
		return nil // a per-layer metric: searched in the traced run only
	}
	from := 0
	for from < len(ladder)-1 && ladder[from] < start {
		from++
	}
	rng := rand.New(rand.NewSource(b.seed + 1))
	best, tried := searchLadder(ladder, from, 4, serveLimits, func(rate float64) Rung {
		s := l.Run(poissonSchedule(rng, rate, rungDur))
		b.countWrong(s)
		r := summarize(s, rungDur/4).rung(rate)
		// Let the rung's queues drain; an overloaded one leaves a backlog
		// (queued requests, a grown heap) that would slow the next rung.
		pause := 200 * time.Millisecond
		if !serveLimits.Pass(r) {
			pause = time.Second
		}
		time.Sleep(pause)
		return r
	})
	b.env["ladder_probes"] = tried
	if best < 0 {
		// Not even the lowest rung was sustained: a measurement (0 req/s),
		// not a failure of the run.
		logf("no ladder rate met the limits: %+v", tried)
		return nil
	}
	for _, r := range tried {
		if r.Rate == ladder[best] {
			b.layer["client.max_qps"] = r.Achieved
		}
	}
	return nil
}

// quietSamples drops the requests a steal burst overlapped (see
// stealMonitor), unless that would drop half of them. Failures are
// counted on every request regardless.
func (b *bench) quietSamples(l *Loader, samples []Sample) []Sample {
	failed := 0
	var kept []Sample
	for _, s := range samples {
		if !s.OK {
			failed++
		}
		if !b.mon.disturbed(l.started.Add(s.Due), l.started.Add(s.End)) {
			kept = append(kept, s)
		}
	}
	b.failN(failed, "%d of %d queries failed or answered wrong", failed, len(samples))
	if 2*len(kept) < len(samples) {
		kept = samples
	}
	b.mu.Lock()
	b.env["steal_dropped.queries"] = len(samples) - len(kept)
	b.mu.Unlock()
	return kept
}

// countWrong counts every request of an unchecked-latency run (warm-up,
// ladder rung) that was answered 200 with a wrong sum. Refusals there
// are the ladder's limit misses, not wrong outputs.
func (b *bench) countWrong(samples []Sample) {
	b.tried(len(samples))
	wrong := 0
	for _, s := range samples {
		if s.Wrong {
			wrong++
		}
	}
	b.failN(wrong, "%d of %d queries answered a wrong sum", wrong, len(samples))
}

// queryLayers derives the serve, gate and client layers from a
// reference run (its latencies over the quiet requests st, its counts
// over every request sent) and the /metrics deltas around it. Deltas of the two
// replicas are summed; with a gate, the first scrape is the gate's.
func (b *bench) queryLayers(sent []Sample, st LoadStats, before, after []Scrape, gated bool) {
	L := b.layer
	all := summarize(sent, 0)
	L["client.sent"] = float64(all.Sent)
	L["client.failed"] = float64(all.Failed)
	reps := sumDeltas(before, after)
	var gd Scrape
	if gated {
		gd = Delta(before[0], after[0])
		reps = sumDeltas(before[1:], after[1:])
	}
	repMean, _ := reps.HistMean("stpt_serve_request_seconds")
	L["serve.handler_mean_ms"] = repMean * 1e3
	L["serve.requests"] = reps.Family("stpt_serve_requests_total")
	L["serve.shed"] = reps["stpt_serve_shed_total"]
	gen := 0.0
	for _, s := range after[len(after)-1:] {
		gen = s["stpt_serve_generation"]
	}
	L["serve.generation"] = gen
	L["client.late_p99_ms"] = st.LateP99Ms
	L["client.overhead_mean_ms"] = st.ServiceMeanMs - repMean*1e3
	if gated {
		gateMean, n := gd.HistMean("stpt_gate_request_seconds")
		L["gate.request_mean_ms"] = gateMean * 1e3
		L["gate.hop_mean_ms"] = (gateMean - repMean) * 1e3
		L["gate.failovers"] = gd["stpt_gate_failovers_total"]
		L["gate.hedges"] = gd["stpt_gate_hedges_total"]
		L["gate.refused"] = gd["stpt_gate_refused_total"]
		if n > 0 {
			L["gate.attempts_per_request"] = (n + L["gate.failovers"] + L["gate.hedges"]) / n
		}
		L["client.overhead_mean_ms"] = st.ServiceMeanMs - gateMean*1e3
	}
}

// indexLayers times the index and file layers on the served matrix:
// grid.TileIndex construction and RangeSum, query.Answer over the same
// queries, and the matrix CSV save and load.
func (b *bench) indexLayers(m *grid.Matrix, qs []grid.Query) error {
	if b.tr == nil {
		return nil
	}
	var builds, saves, loads []float64
	var ti *grid.TileIndex
	path := filepath.Join(b.work, "index-layer.csv")
	for i := int64(0); i < 5; i++ {
		_, d := b.tr.Time("grid.NewTileIndex", i, -1, func() { ti = grid.NewTileIndex(m) })
		builds = append(builds, float64(d)/1e6)
		var err error
		_, d = b.tr.Time("datasets.SaveMatrixCSVFile", i, -1, func() {
			err = datasets.SaveMatrixCSVFile(context.Background(), path, m)
		})
		if err != nil {
			return err
		}
		saves = append(saves, float64(d)/1e6)
		_, d = b.tr.Time("datasets.LoadMatrixCSV", i, -1, func() { _, err = loadMatrixFile(path) })
		if err != nil {
			return err
		}
		loads = append(loads, float64(d)/1e6)
	}
	perQuery := func(name string, f func(grid.Query) float64) float64 {
		var per []float64
		var sink float64
		for rep := int64(0); rep < 5; rep++ {
			t0 := time.Now()
			n := 0
			for time.Since(t0) < 20*time.Millisecond {
				for _, q := range qs {
					sink += f(q)
				}
				n += len(qs)
			}
			t1 := time.Now()
			b.tr.Add(name, rep, -1, t0, t1, fmt.Sprint(n))
			per = append(per, float64(t1.Sub(t0).Nanoseconds())/float64(n))
		}
		_ = sink
		return median(per)
	}
	b.layer["grid.tileindex_build_ms"] = median(builds)
	b.layer["datasets.save_ms"] = median(saves)
	b.layer["datasets.load_ms"] = median(loads)
	b.layer["grid.rangesum_ns"] = perQuery("grid.RangeSum", ti.RangeSum)
	b.layer["query.answer_ns"] = perQuery("query.Answer", func(q grid.Query) float64 {
		s, _ := query.Answer(ti, q)
		return s
	})
	return nil
}

// serveRelease publishes a release matrix to disk, serves it from one
// stpt-serve replica and measures analyst queries against it directly
// (the release workload's light serving check). It returns the
// replica's peak RSS.
func (b *bench) serveRelease(rel *grid.Matrix, refRate float64, refDur, rungDur time.Duration) (float64, error) {
	path := filepath.Join(b.work, "release.csv")
	if err := datasets.SaveMatrixCSVFile(context.Background(), path, rel); err != nil {
		return 0, err
	}
	m, err := loadMatrixFile(path)
	if err != nil {
		return 0, err
	}
	reqs, qs := queryMix(b.seed, "rel", m, 2000)
	t, err := b.startTier("rel", path, 1, false)
	if err != nil {
		return 0, err
	}
	defer t.stop()
	if err := b.measureQueries(t, reqs, refRate, refDur, directLadderFrom, rungDur); err != nil {
		return 0, err
	}
	return b.rss, b.indexLayers(m, qs)
}

// runServe is the analysts' workload: a release of the CA dataset —
// made by STPT with the persistence model, so the serving path is
// measured without the sequence model's cost — published to disk and
// served by two stpt-serve replicas behind stpt-gate.
func (b *bench) runServe() error {
	d := caDataset(b.seed)
	cfg := releaseConfig(core.ModelPersistence, b.seed)
	cfg.FallbackModels = nil
	rr, err := b.releasePhase(d, cfg, 5, 1500*time.Millisecond, "")
	if err != nil {
		return err
	}
	path := filepath.Join(b.work, "release.csv")
	if err := datasets.SaveMatrixCSVFile(context.Background(), path, rr.res.Sanitized); err != nil {
		return err
	}
	m, err := loadMatrixFile(path)
	if err != nil {
		return err
	}
	reqs, qs := queryMix(b.seed, "rel", m, 4000)

	var t *serveTier
	var setups []timed
	for i := 0; i < setupReps; i++ {
		if t != nil {
			t.stop()
		}
		t0 := time.Now()
		if t, err = b.startTier("rel", path, 2, true); err != nil {
			return err
		}
		setups = append(setups, timed{since(t0), t0, time.Now()})
	}
	defer t.stop()
	b.e2e["setup_s"] = median(b.quiet("setup_s", setups, 3))

	refDur := time.Duration(b.seconds / 2 * float64(time.Second))
	if refDur < 4*time.Second {
		refDur = 4 * time.Second
	}
	if err := b.measureQueries(t, reqs, serveRefRate, refDur, serveRefRate, 2*time.Second); err != nil {
		return err
	}
	t.stop()
	b.e2e["peak_rss_mb"] = b.rss
	if err := b.indexLayers(m, qs); err != nil {
		return err
	}
	return b.streamProbe()
}
