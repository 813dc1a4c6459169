// Command perfbench is the repository's benchmark. It runs one of three
// workloads — release (a publisher running STPT in batch), serve
// (analysts querying through stpt-gate) and stream (an operator running
// continual release) — and prints every end-to-end metric, or with
// --trace 1 every per-layer metric, as the last line of standard output.
// See README.md next to this file for what each number means.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd and perLayer name every metric with its unit, in the order
// BENCHMARK.json lists them. Every run prints all of one list.
var endToEnd = []struct{ Name, Unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"release_s", "s"},
	{"release_mre_pct", "%"},
	{"query_p50_ms", "ms"},
	{"window_p50_ms", "ms"},
	{"window_p90_ms", "ms"},
}

var perLayer = []struct{ Name, Unit string }{
	{"nn.fit_s", "s"},
	{"nn.fit_us_per_sample_epoch", "us"},
	{"nn.samples", "count"},
	{"nn.predict_us", "us"},
	{"nn.rollout_calls", "count"},
	{"mat.mul_ns", "ns"},
	{"mat.mul_flops", "count"},
	{"mat.mul_bytes", "bytes"},
	{"core.run_s", "s"},
	{"core.quantize_s", "s"},
	{"core.partitions", "count"},
	{"core.attempts", "count"},
	{"core.alloc_mb", "MB"},
	{"core.gc_cycles", "count"},
	{"core.unattributed_s", "s"},
	{"quadtree.build_s", "s"},
	{"quadtree.sanitize_s", "s"},
	{"timeseries.normalize_s", "s"},
	{"query.evaluate_s", "s"},
	{"query.answer_ns", "ns"},
	{"query.mre_random_pct", "%"},
	{"grid.rangesum_ns", "ns"},
	{"grid.tileindex_build_ms", "ms"},
	{"datasets.save_ms", "ms"},
	{"datasets.load_ms", "ms"},
	{"serve.handler_mean_ms", "ms"},
	{"serve.requests", "count"},
	{"serve.shed", "count"},
	{"serve.generation", "count"},
	{"gate.request_mean_ms", "ms"},
	{"gate.hop_mean_ms", "ms"},
	{"gate.attempts_per_request", "ratio"},
	{"gate.failovers", "count"},
	{"gate.hedges", "count"},
	{"gate.refused", "count"},
	{"ingest.batch_p50_ms", "ms"},
	{"ingest.batch_p99_ms", "ms"},
	{"ingest.ack_p99_ms", "ms"},
	{"ingest.batches", "count"},
	{"ingest.wal_bytes", "bytes"},
	{"pipeline.cut_ms", "ms"},
	{"pipeline.release_ms", "ms"},
	{"pipeline.charge_ms", "ms"},
	{"pipeline.publish_ms", "ms"},
	{"pipeline.reload_ms", "ms"},
	{"pipeline.windows", "count"},
	{"dp.ledger_entries", "count"},
	{"dp.spent_eps", "eps"},
	{"client.sent", "count"},
	{"client.failed", "count"},
	{"client.query_p99_ms", "ms"},
	{"client.max_qps", "req/s"},
	{"client.late_p99_ms", "ms"},
	{"client.overhead_mean_ms", "ms"},
	{"trace.release_s", "s"},
	{"trace.query_p50_ms", "ms"},
	{"trace.window_p50_ms", "ms"},
}

// bench is the state of one run.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	bin      string // directory holding stpt-serve and stpt-gate
	work     string // scratch directory, removed at the end
	tr       *Tracer

	mu                sync.Mutex
	attempted, failed int
	e2e, layer        map[string]float64
	env               map[string]any
	rss               float64 // peak RSS of the serving processes at reference load, MB
	mon               *stealMonitor
}

// tried counts n attempted operations.
func (b *bench) tried(n int) {
	b.mu.Lock()
	b.attempted += n
	b.mu.Unlock()
}

// fail counts one wrong or failed operation and says why on stderr.
func (b *bench) fail(format string, args ...any) { b.failN(1, format, args...) }

// failN counts n wrong or failed operations (none when n is 0).
func (b *bench) failN(n int, format string, args ...any) {
	if n == 0 {
		return
	}
	b.mu.Lock()
	b.failed += n
	quiet := b.failed > 20
	b.mu.Unlock()
	if !quiet {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	var (
		workload = flag.String("workload", "", "release, serve or stream")
		seed     = flag.Int64("seed", 1, "workload seed: every input is generated from it")
		seconds  = flag.Float64("seconds", 16, "measurement budget of the workload's main phase")
		trace    = flag.Int("trace", 0, "1: record spans and print the per-layer metrics instead")
		bin      = flag.String("bin", "", "directory holding the stpt-serve and stpt-gate binaries")
		work     = flag.String("work", ".bench_build/work", "scratch directory")
		src      = flag.String("src", "..", "repository root, for the source digest in the environment record")
		digests  = flag.String("print-digests", "", "print the release digests of seeds lo-hi as JSON and exit")
	)
	flag.Parse()
	if *digests != "" {
		if err := printDigests(*digests); err != nil {
			logf("%v", err)
			os.Exit(1)
		}
		return
	}
	run := map[string]func(*bench) error{
		"release": (*bench).runRelease,
		"serve":   (*bench).runServe,
		"stream":  (*bench).runStream,
	}[*workload]
	if run == nil {
		logf("unknown --workload %q (want release, serve or stream)", *workload)
		os.Exit(2)
	}
	b := &bench{
		workload: *workload, seed: *seed, seconds: *seconds, bin: *bin,
		tr:  newTracer(*trace == 1),
		e2e: map[string]float64{}, layer: map[string]float64{},
	}
	b.work = filepath.Join(*work, fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid()))
	b.env = map[string]any{
		"workload": *workload, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(), "goarch": runtime.GOARCH,
		"commit": gitCommit(*src), "source_sha256": sourceDigest(*src),
	}
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	b.mon = startStealMonitor(50 * time.Millisecond)
	runStart := time.Now()
	err := run(b)
	runEnd := time.Now()
	b.mon.sample()
	b.env["steal_share"] = b.mon.stolen(runStart, runEnd)
	b.mon.stop()
	os.RemoveAll(b.work)
	if err != nil {
		logf("%s: %v", *workload, err)
		os.Exit(1)
	}
	if b.tr != nil {
		path := filepath.Join(filepath.Dir(*work), "traces", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		if err := b.tr.Write(path); err != nil {
			logf("writing spans: %v", err)
			os.Exit(1)
		}
		logf("spans written to %s", path)
	}
	if err := b.report(os.Stdout); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
}

// report prints the environment line and then the result line.
func (b *bench) report(w io.Writer) error {
	list, vals := endToEnd, b.e2e
	if b.tr != nil {
		list, vals = perLayer, b.layer
	}
	metrics := map[string]Metric{}
	for _, m := range list {
		v := vals[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, v)
		}
		metrics[m.Name] = Metric{Value: v, Unit: m.Unit}
	}
	var extra []string
	for k := range vals {
		if _, ok := metrics[k]; !ok {
			extra = append(extra, k)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("unlisted metrics %v", extra)
	}
	if b.tr == nil {
		// Tail metrics kept per layer for their spread: see README.md.
		b.env["tails"] = map[string]float64{
			"client.query_p99_ms": b.layer["client.query_p99_ms"],
			"ingest.ack_p99_ms":   b.layer["ingest.ack_p99_ms"],
		}
	}
	envLine, err := json.Marshal(map[string]any{"env": b.env})
	if err != nil {
		return err
	}
	res, err := json.Marshal(map[string]any{
		"correct":   b.failed == 0,
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", envLine, res)
	return err
}

// gitCommit names the checked-out commit, or "unknown" outside git.
func gitCommit(src string) string {
	out, err := exec.Command("git", "-C", src, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the program's Go sources and module file (the
// benchmark's own directory excluded), identifying the code under test
// even where the checkout carries no git metadata.
func sourceDigest(src string) string {
	var files []string
	filepath.WalkDir(src, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if p != src && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(src, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// since returns the seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
