package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/datasets"
	"repro/internal/dp"
	"repro/internal/grid"
	"repro/internal/ingest"
	"repro/internal/pipeline"
	"repro/internal/query"
)

const (
	streamGrid    = 32  // meter grid side
	streamWindow  = 12  // intervals per published window
	streamBatch   = 256 // readings per Ingest call (one WAL commit each)
	streamEpsNode = 0.5
	streamDataset = "meters"
	streamToken   = "perfbench"
	// streamPeriod is the feed's pace: one window of readings every
	// 200 ms, i.e. a batch every 200/48 ms. A window settles in ~40 ms on
	// a quiet 2-core machine; the headroom keeps a slow spell of the host
	// (fsync stalls, a busy neighbour) from growing an unbounded backlog.
	streamPeriod = 200 * time.Millisecond
	// streamQueryRate is the analysts' read load on the stream's replica.
	streamQueryRate = 300
)

// meterFeed is a synthetic 32×32 smart-meter feed: one reading per cell
// per interval, a per-cell base load with a daily cycle and noise, all
// drawn from the workload seed.
type meterFeed struct {
	seed int64
	base []float64
}

func newMeterFeed(seed int64) *meterFeed {
	rng := rand.New(rand.NewSource(seed))
	f := &meterFeed{seed: seed, base: make([]float64, streamGrid*streamGrid)}
	for i := range f.base {
		f.base[i] = 2 * math.Exp(0.6*rng.NormFloat64())
	}
	return f
}

// window returns window w's (1-based) readings as Ingest batches, and
// the true cut the pipeline should freeze: each cell's value parsed
// back from the text exactly as the ingester parses it.
func (f *meterFeed) window(w int) ([][]byte, *grid.Matrix) {
	truth := grid.NewMatrix(streamGrid, streamGrid, streamWindow)
	var batches [][]byte
	var buf []byte
	lines := 0
	for dt := 0; dt < streamWindow; dt++ {
		t := (w-1)*streamWindow + dt
		rng := rand.New(rand.NewSource(f.seed*1_000_003 + int64(t)))
		daily := 0.7 + 0.3*math.Sin(2*math.Pi*float64(t%24-6)/24)
		for y := 0; y < streamGrid; y++ {
			for x := 0; x < streamGrid; x++ {
				v := f.base[y*streamGrid+x] * daily * (0.8 + 0.4*rng.Float64())
				num := strconv.AppendFloat(nil, v, 'f', 3, 64)
				parsed, _ := strconv.ParseFloat(string(num), 64)
				truth.Set(x, y, dt, parsed)
				buf = strconv.AppendInt(buf, int64(x), 10)
				buf = append(buf, ',')
				buf = strconv.AppendInt(buf, int64(y), 10)
				buf = append(buf, ',')
				buf = strconv.AppendInt(buf, int64(t), 10)
				buf = append(buf, ',')
				buf = append(buf, num...)
				buf = append(buf, '\n')
				if lines++; lines == streamBatch {
					batches = append(batches, buf)
					buf, lines = nil, 0
				}
			}
		}
	}
	if lines > 0 {
		batches = append(batches, buf)
	}
	return batches, truth
}

// streamPipe is one continual-release pipeline opened through the
// public API, optionally with a stpt-serve replica it rings.
type streamPipe struct {
	dir     string
	out     string
	in      *ingest.Ingester
	led     *dp.Ledger
	man     *pipeline.Manifest
	sup     *pipeline.Supervisor
	replica *Daemon
	reload  pipeline.Notifier // set once the replica is up
	queries *Loader           // the read stream of the last streamPhase
}

// openPipe opens ingest.New, dp.OpenLedger, pipeline.OpenManifest and
// pipeline.New over a fresh directory, sized for ct intervals.
func openPipe(dir string, ct int, seed int64) (*streamPipe, error) {
	p := &streamPipe{dir: dir, out: filepath.Join(dir, "out")}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var err error
	if p.in, err = ingest.New(ingest.Config{Cx: streamGrid, Cy: streamGrid, Ct: ct, BatchSize: streamBatch}, filepath.Join(dir, "feed.wal")); err != nil {
		return nil, err
	}
	if p.led, err = dp.OpenLedger(filepath.Join(dir, "budget.ledger")); err != nil {
		p.close()
		return nil, err
	}
	if p.man, err = pipeline.OpenManifest(filepath.Join(dir, "manifest.jsonl")); err != nil {
		p.close()
		return nil, err
	}
	notify := pipeline.NotifierFunc(func(ctx context.Context) error {
		if p.reload == nil {
			return nil
		}
		return p.reload.Notify(ctx)
	})
	p.sup, err = pipeline.New(pipeline.Config{
		Dataset: streamDataset, OutDir: p.out, Window: streamWindow,
		EpsNode: streamEpsNode, Seed: seed, Notifier: notify,
	}, p.in, p.led, p.man)
	if err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

func (p *streamPipe) close() {
	p.replica.Stop()
	if p.man != nil {
		p.man.Close()
	}
	if p.led != nil {
		p.led.Close()
	}
	if p.in != nil {
		p.in.Close()
	}
	os.RemoveAll(p.dir)
}

// walBytes is the size of the WAL on disk.
func (p *streamPipe) walBytes() float64 {
	ents, _ := os.ReadDir(p.dir)
	var n int64
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "feed.wal") {
			if fi, err := e.Info(); err == nil {
				n += fi.Size()
			}
		}
	}
	return float64(n)
}

// streamStats collects what the stream phase measured.
type streamStats struct {
	mu       sync.Mutex
	windowMs []timed            // last batch durable → Step returns reloaded
	stageMs  map[string][]timed // Step durations by the state it reached
	acks     []Sample           // batch due → Ingest returned
	batchMs  []float64          // Ingest call duration
}

// ingestWindow feeds one window's batches back to back, untimed (the
// priming window of set-up).
func (b *bench) ingestWindow(p *streamPipe, batches [][]byte) error {
	for _, batch := range batches {
		acc, q, err := p.in.Ingest(context.Background(), bytes.NewReader(batch))
		if err != nil {
			return err
		}
		if q != 0 || int(acc) != bytes.Count(batch, []byte{'\n'}) {
			return fmt.Errorf("ingest accepted %d, quarantined %d of %d readings", acc, q, bytes.Count(batch, []byte{'\n'}))
		}
	}
	return nil
}

// stepWindow steps the supervisor until window w is reloaded (or, with
// stopAt, until it reaches that state), timing each Step and labelling
// it by the manifest state it left behind.
func (b *bench) stepWindow(p *streamPipe, w int, stopAt pipeline.State, st *streamStats) bool {
	for {
		t0 := time.Now()
		advanced, err := p.sup.Step(context.Background())
		t1 := time.Now()
		b.tried(1)
		if err != nil {
			b.fail("window %d: %v", w, err)
			return false
		}
		if !advanced {
			b.fail("window %d: supervisor made no progress", w)
			return false
		}
		state := p.man.LastState()
		b.tr.Add("pipeline.Step", int64(w), -1, t0, t1, string(state))
		if st != nil {
			st.mu.Lock()
			st.stageMs[string(state)] = append(st.stageMs[string(state)], timed{float64(t1.Sub(t0)) / 1e6, t0, t1})
			st.mu.Unlock()
		}
		if p.man.LastWindow() == w && state == stopAt {
			return true
		}
	}
}

// checkWindow verifies a reloaded window: the published file's CRC
// against the manifest's released checksum and, with a replica, one
// query answered by the replica against the benchmark's own index over
// the published file.
func (b *bench) checkWindow(p *streamPipe, w int, client *http.Client, rng *rand.Rand) {
	b.tried(1)
	rec, ok := p.man.Get(w, pipeline.StateReleased)
	data, err := os.ReadFile(pipeline.WindowPath(p.out, w))
	switch {
	case !ok:
		b.fail("window %d: no released record", w)
		return
	case err != nil:
		b.fail("window %d: %v", w, err)
		return
	case crc32.ChecksumIEEE(data) != rec.Checksum:
		b.fail("window %d: file crc %08x, manifest says %08x", w, crc32.ChecksumIEEE(data), rec.Checksum)
		return
	}
	if p.replica == nil {
		return
	}
	m, err := datasets.LoadMatrixCSV(bytes.NewReader(data))
	if err != nil {
		b.fail("window %d: %v", w, err)
		return
	}
	q := query.Generate(rng, query.Random, m.Cx, m.Cy, m.Ct, 1)[0]
	want := grid.NewTileIndex(m).RangeSum(q)
	l := &Loader{base: p.replica.URL}
	if ok, _ := l.do(client, Request{
		Path: fmt.Sprintf("/query?d=stream&x0=%d&x1=%d&y0=%d&y1=%d&t0=%d&t1=%d", q.X0, q.X1, q.Y0, q.Y1, q.T0, q.T1),
		Want: want, Check: true,
	}); !ok {
		b.fail("window %d: replica's answer to %+v differs from the published window's %v", w, q, want)
	}
}

// prime publishes window 1 during set-up, so a replica started on
// latest.csv has a release to load.
func (b *bench) prime(p *streamPipe, feed *meterFeed) error {
	batches, _ := feed.window(1)
	if err := b.ingestWindow(p, batches); err != nil {
		return err
	}
	if !b.stepWindow(p, 1, pipeline.StatePublished, nil) {
		return fmt.Errorf("priming window did not publish")
	}
	return nil
}

// mreWindows is how many published windows release_mre_pct averages on
// the stream workload: one 32×32×12 window's MRE swings with its noise
// draw, ten windows' mean does not.
const mreWindows = 10

// streamMRE scores the first mreWindows published windows against the
// feed's true cuts: the mean over windows of the MRE averaged over the
// three query classes (and, per layer, of the random class alone).
func (b *bench) streamMRE(p *streamPipe, feed *meterFeed) error {
	var all, random []float64
	for w := 1; w <= mreWindows; w++ {
		_, truth := feed.window(w)
		rel, err := loadMatrixFile(pipeline.WindowPath(p.out, w))
		if err != nil {
			return err
		}
		m := query.EvaluateAll(truth, rel, mreQueries, b.seed+int64(w))
		all = append(all, (m[query.Random]+m[query.Small]+m[query.Large])/3)
		random = append(random, m[query.Random])
	}
	b.e2e["release_mre_pct"] = mean(all)
	b.layer["query.mre_random_pct"] = mean(random)
	return nil
}

// startReplica starts the stream's stpt-serve on latest.csv, waits for
// /readyz and routes the supervisor's reload notifications to it.
func (b *bench) startReplica(p *streamPipe) error {
	d, err := startDaemon(filepath.Join(b.bin, "stpt-serve"), "stream-replica", filepath.Join(b.work, "logs"),
		"-load", "stream="+pipeline.LatestPath(p.out), "-reload-token", streamToken, "-scrub-interval", "0")
	if err != nil {
		return err
	}
	p.replica = d
	if err := d.waitReady(30 * time.Second); err != nil {
		return err
	}
	p.reload = pipeline.HTTPNotifier(d.URL+"/-/reload", streamToken, nil)
	return nil
}

// streamPhase feeds windows 2..windows+1 on a fixed schedule (period per
// window) while a stepper goroutine advances each window to reloaded as
// soon as its last batch is durable. Period 0 is a closed loop instead:
// each window is fed back to back, then settled before the next starts.
// With a replica, an open-loop query stream reads it at streamQueryRate.
func (b *bench) streamPhase(p *streamPipe, feed *meterFeed, windows int, period time.Duration) (*streamStats, []Sample) {
	st := &streamStats{stageMs: map[string][]timed{}}
	type windowDone struct {
		w   int
		ack time.Time
	}
	feedCh := make(chan [][]byte, 2)
	go func() {
		for w := 2; w <= windows+1; w++ {
			batches, _ := feed.window(w)
			feedCh <- batches
		}
	}()
	stepCh := make(chan windowDone, windows)
	settled := make(chan struct{}, windows)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		client := oneConnClient()
		defer client.CloseIdleConnections()
		rng := rand.New(rand.NewSource(b.seed))
		for wd := range stepCh {
			if b.stepWindow(p, wd.w, pipeline.StateReloaded, st) {
				done := time.Now()
				b.tr.Add("pipeline.window", int64(wd.w), -1, wd.ack, done, "")
				st.windowMs = append(st.windowMs, timed{float64(done.Sub(wd.ack)) / 1e6, wd.ack, done})
				b.checkWindow(p, wd.w, client, rng)
			}
			settled <- struct{}{}
		}
	}()

	var reads []Sample
	if p.replica != nil {
		conns := runtime.NumCPU() - 1 // the stepper's check query holds the other
		if conns < 1 {
			conns = 1
		}
		b.env["stream_query_connections"] = conns
		b.env["stream_query_rate"] = streamQueryRate
		m := grid.NewMatrix(streamGrid, streamGrid, streamWindow)
		reqs, _ := queryMix(b.seed, "stream", m, 1000)
		for i := range reqs {
			reqs[i].Check = false // the generation changes under the reads
		}
		l := newLoader(p.replica.URL, conns, reqs, b.tr)
		defer l.Close()
		p.queries = l
		wg.Add(1)
		go func() {
			defer wg.Done()
			reads = l.Run(fixedSchedule(streamQueryRate, time.Duration(windows)*period))
		}()
	}

	batchPeriod := period / time.Duration((streamWindow*streamGrid*streamGrid+streamBatch-1)/streamBatch)
	t0 := time.Now()
	next := t0
	for w := 2; w <= windows+1; w++ {
		batches := <-feedCh
		for j, batch := range batches {
			due := time.Now()
			if period > 0 {
				due = next
				next = next.Add(batchPeriod)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
			}
			s := time.Now()
			acc, q, err := p.in.Ingest(context.Background(), bytes.NewReader(batch))
			e := time.Now()
			b.tried(1)
			if err != nil || q != 0 || int(acc) != bytes.Count(batch, []byte{'\n'}) {
				b.fail("window %d batch %d: accepted %d quarantined %d: %v", w, j, acc, q, err)
			}
			b.tr.Add("ingest.Ingest", int64(w), -1, s, e, "")
			st.acks = append(st.acks, Sample{Due: due.Sub(t0), Start: s.Sub(t0), End: e.Sub(t0), OK: true})
			st.batchMs = append(st.batchMs, float64(e.Sub(s))/1e6)
			if j == len(batches)-1 {
				stepCh <- windowDone{w: w, ack: e}
				if period == 0 {
					<-settled // closed loop: the next window waits for this one
				}
			}
		}
	}
	close(stepCh)
	wg.Wait()
	return st, reads
}

// streamResults reports the window and ingest metrics and the ingest,
// pipeline and dp layers, and checks the ledger's spend.
func (b *bench) streamResults(p *streamPipe, st *streamStats, windows int) {
	win := b.quiet("windows", st.windowMs, len(st.windowMs)/2)
	b.e2e["window_p50_ms"] = percentile(win, 0.50)
	b.e2e["window_p90_ms"] = percentile(win, 0.90)
	b.layer["ingest.ack_p99_ms"] = summarize(st.acks, 2*time.Second).P99Ms
	L := b.layer
	L["trace.window_p50_ms"] = b.e2e["window_p50_ms"]
	L["ingest.batch_p50_ms"] = percentile(st.batchMs, 0.50)
	L["ingest.batch_p99_ms"] = percentile(st.batchMs, 0.99)
	L["ingest.batches"] = float64(p.in.Stats().Batches)
	L["ingest.wal_bytes"] = p.walBytes()
	for _, s := range []struct{ metric, state string }{
		{"pipeline.cut_ms", "cut"}, {"pipeline.release_ms", "released"}, {"pipeline.charge_ms", "charged"},
		{"pipeline.publish_ms", "published"}, {"pipeline.reload_ms", "reloaded"},
	} {
		L[s.metric] = median(values(st.stageMs[s.state]))
	}
	L["pipeline.windows"] = float64(len(st.windowMs))
	L["dp.ledger_entries"] = float64(p.led.Len())
	spent := p.led.Spent(streamDataset)
	L["dp.spent_eps"] = spent
	tc, err := dp.NewTreeComposer(streamDataset, streamEpsNode)
	b.tried(1)
	if err != nil {
		b.fail("%v", err)
	} else if want := tc.ExpectedSpend(windows + 1); spent != want {
		b.fail("ledger spent ε=%v after %d windows, the tree composer expects %v", spent, windows+1, want)
	}
}

// streamProbe is the light continual-release pass of the release and
// serve workloads: 60 windows, each fed back to back and settled before
// the next, through the same public API, with no replica to ring.
func (b *bench) streamProbe() error {
	const windows = 60
	feed := newMeterFeed(b.seed)
	p, err := openPipe(filepath.Join(b.work, "probe"), streamWindow*(windows+1), b.seed)
	if err != nil {
		return err
	}
	defer p.close()
	if err := b.prime(p, feed); err != nil {
		return err
	}
	if !b.stepWindow(p, 1, pipeline.StateReloaded, nil) {
		return fmt.Errorf("priming window did not reload")
	}
	st, _ := b.streamPhase(p, feed, windows, 0)
	b.streamResults(p, st, windows)
	return nil
}

// runStream is the operator's workload: continual release of a meter
// feed through ingest, the ledger, the manifest and the supervisor, each
// window published to a real stpt-serve that analysts read meanwhile.
func (b *bench) runStream() error {
	windows := int(b.seconds * 0.75 / streamPeriod.Seconds())
	if windows < 100 {
		windows = 100 // p90 needs at least ten windows beyond it
	}
	b.env["stream_windows"] = windows
	b.env["stream_period_ms"] = streamPeriod.Milliseconds()
	feed := newMeterFeed(b.seed)

	var p *streamPipe
	var setups []timed
	for i := 0; i < setupReps; i++ {
		if p != nil {
			p.close()
		}
		t0 := time.Now()
		var err error
		p, err = openPipe(filepath.Join(b.work, fmt.Sprintf("stream%d", i)), streamWindow*(windows+1), b.seed)
		if err != nil {
			return err
		}
		opened := since(t0)
		if err = b.prime(p, feed); err != nil {
			p.close()
			return err
		}
		t1 := time.Now()
		if err := b.startReplica(p); err != nil {
			p.close()
			return err
		}
		setups = append(setups, timed{opened + since(t1), t0, time.Now()})
	}
	defer p.close()
	b.e2e["setup_s"] = median(b.quiet("setup_s", setups, 3))
	if !b.stepWindow(p, 1, pipeline.StateReloaded, nil) {
		return fmt.Errorf("priming window did not reload")
	}

	urls := []string{p.replica.URL}
	before, err := scrapeAll(probeClient, urls)
	if err != nil {
		return err
	}
	st, reads := b.streamPhase(p, feed, windows, streamPeriod)
	after, err := scrapeAll(probeClient, urls)
	if err != nil {
		return err
	}
	b.streamResults(p, st, windows)
	if err := b.streamMRE(p, feed); err != nil {
		return err
	}
	b.e2e["release_s"] = median(b.quiet("release_s", st.stageMs["released"], windows/2)) / 1e3
	b.layer["trace.release_s"] = b.e2e["release_s"]

	b.tried(len(reads))
	rs := summarize(b.quietSamples(p.queries, reads), 4*time.Second)
	b.rss = p.replica.PeakRSSMB()
	b.e2e["query_p50_ms"] = rs.P50Ms
	b.layer["client.query_p99_ms"] = rs.P99Ms
	b.layer["trace.query_p50_ms"] = rs.P50Ms
	b.queryLayers(reads, rs, before, after, false)

	last, err := loadMatrixFile(pipeline.LatestPath(p.out))
	if err != nil {
		return err
	}
	reqs, qs := queryMix(b.seed, "stream", last, 2000)
	l := newLoader(p.replica.URL, runtime.NumCPU(), reqs, b.tr)
	defer l.Close()
	if err := b.maxQPS(l, directLadderFrom, time.Second); err != nil {
		return err
	}
	b.e2e["peak_rss_mb"] = peakRSSMB(0) + b.rss
	return b.indexLayers(last, qs)
}
