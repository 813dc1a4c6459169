// Package metrics is a dependency-free Prometheus-text-exposition
// registry for the serving tier: counters, labelled counter families,
// gauges (including callback gauges read at scrape time), and
// cumulative histograms. It implements exactly the slice of the
// exposition format the daemons need — `# HELP`/`# TYPE` lines, one
// sample per series, histograms as cumulative `_bucket`/`_sum`/`_count`
// — so stpt-serve and stpt-gate can expose /metrics without importing a
// client library the container doesn't have. Instrument is the
// request-counting middleware both daemons wrap their handlers in.
package metrics

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds a fixed set of instruments and renders them in
// registration order. Registration is not idempotent — register once at
// construction, then share the instrument handles.
type Registry struct {
	mu    sync.Mutex
	insts []instrument
	names map[string]bool
}

type instrument interface {
	write(b *strings.Builder)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

func (r *Registry) register(name string, inst instrument) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[name] {
		panic(fmt.Sprintf("metrics: duplicate registration of %q", name))
	}
	r.names[name] = true
	r.insts = append(r.insts, inst)
}

// WriteTo renders the registry in Prometheus text exposition format.
func (r *Registry) WriteTo(b *strings.Builder) {
	r.mu.Lock()
	insts := append([]instrument(nil), r.insts...)
	r.mu.Unlock()
	for _, inst := range insts {
		inst.write(b)
	}
}

// Handler serves the registry as `text/plain; version=0.0.4`.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var b strings.Builder
		r.WriteTo(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write([]byte(b.String()))
	})
}

func header(b *strings.Builder, name, help, typ string) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// formatValue renders floats the way Prometheus expects: integers
// without a decimal point, +Inf/NaN spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%g", v)
	}
}

// Counter is a monotonically increasing count.
type Counter struct {
	name, help string
	labels     string // rendered {k="v",...} or ""
	n          atomic.Uint64
}

// Counter registers a new unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(name, c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.n.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

func (c *Counter) write(b *strings.Builder) {
	header(b, c.name, c.help, "counter")
	fmt.Fprintf(b, "%s%s %d\n", c.name, c.labels, c.n.Load())
}

// CounterVec is a family of counters split by one label (e.g. HTTP
// status code). Series are created on first use and rendered sorted by
// label value so scrapes are deterministic.
type CounterVec struct {
	name, help, label string
	mu                sync.Mutex
	series            map[string]*Counter
}

// CounterVec registers a labelled counter family.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	v := &CounterVec{name: name, help: help, label: label, series: make(map[string]*Counter)}
	r.register(name, v)
	return v
}

// With returns (creating if needed) the series for a label value.
func (v *CounterVec) With(value string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.series[value]
	if !ok {
		c = &Counter{name: v.name, help: v.help,
			labels: fmt.Sprintf("{%s=%q}", v.label, value)}
		v.series[value] = c
	}
	return c
}

func (v *CounterVec) write(b *strings.Builder) {
	v.mu.Lock()
	keys := make([]string, 0, len(v.series))
	for k := range v.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	series := make([]*Counter, len(keys))
	for i, k := range keys {
		series[i] = v.series[k]
	}
	v.mu.Unlock()
	header(b, v.name, v.help, "counter")
	for _, c := range series {
		fmt.Fprintf(b, "%s%s %d\n", c.name, c.labels, c.n.Load())
	}
}

// Gauge is a value that goes up and down.
type Gauge struct {
	name, help string
	bits       atomic.Uint64
	fn         func() float64 // when non-nil, read at scrape time
}

// Gauge registers a settable gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	r.register(name, g)
	return g
}

// GaugeFunc registers a gauge whose value is computed at scrape time —
// the natural shape for "current generation id" or "seconds behind the
// leader", which already live in the serving state.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, &Gauge{name: name, help: help, fn: fn})
}

// Scrubber is what the scrub gauges read: an at-rest integrity
// scrubber's lifetime counters and its latched corrupt artifacts.
type Scrubber interface {
	ScrubCounts() (passes, corruptFound, repaired, quarantined uint64)
	CorruptArtifacts() []string
}

// ScrubGauges registers the five integrity-scrub gauges every daemon
// that scrubs exports, as <prefix>_scrub_passes_total,
// _corrupt_found_total, _repaired_total, _quarantined_total and
// _corrupt_artifacts. Each is read at scrape time from src(), and reads
// 0 while src returns nil.
func (r *Registry) ScrubGauges(prefix string, src func() Scrubber) {
	count := func(pick func(passes, corrupt, repaired, quarantined uint64) uint64) func() float64 {
		return func() float64 {
			if s := src(); s != nil {
				return float64(pick(s.ScrubCounts()))
			}
			return 0
		}
	}
	r.GaugeFunc(prefix+"_scrub_passes_total",
		"Completed integrity-scrub passes over the at-rest artifacts.",
		count(func(p, _, _, _ uint64) uint64 { return p }))
	r.GaugeFunc(prefix+"_scrub_corrupt_found_total",
		"Artifacts found corrupt by the integrity scrubber.",
		count(func(_, c, _, _ uint64) uint64 { return c }))
	r.GaugeFunc(prefix+"_scrub_repaired_total",
		"Corrupt artifacts repaired and byte-verified.",
		count(func(_, _, r, _ uint64) uint64 { return r }))
	r.GaugeFunc(prefix+"_scrub_quarantined_total",
		"Corrupt artifacts quarantined to <path>.corrupt.",
		count(func(_, _, _, q uint64) uint64 { return q }))
	r.GaugeFunc(prefix+"_scrub_corrupt_artifacts",
		"Artifacts currently latched corrupt (readiness reports 'corrupt' while > 0).",
		func() float64 {
			if s := src(); s != nil {
				return float64(len(s.CorruptArtifacts()))
			}
			return 0
		})
}

// Set stores the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g.fn != nil {
		return g.fn()
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) write(b *strings.Builder) {
	header(b, g.name, g.help, "gauge")
	fmt.Fprintf(b, "%s %s\n", g.name, formatValue(g.Value()))
}

// DefBuckets is the default latency histogram layout, in seconds: wide
// enough for a shed-vs-served split to show, fine enough at the bottom
// for O(1) prefix-sum answers.
func DefBuckets() []float64 {
	return []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

// Histogram is a cumulative histogram in the Prometheus sense: each
// bucket counts observations ≤ its upper bound, plus +Inf, _sum and
// _count. Observation is lock-free.
type Histogram struct {
	name, help string
	bounds     []float64
	counts     []atomic.Uint64 // len(bounds)+1; last is +Inf overflow
	count      atomic.Uint64
	sumBits    atomic.Uint64 // float64 sum, CAS-accumulated
}

// Histogram registers a histogram over the given bucket upper bounds
// (must be sorted ascending; nil means DefBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets()
	}
	h := &Histogram{name: name, help: help, bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	r.register(name, h)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

func (h *Histogram) write(b *strings.Builder) {
	header(b, h.name, h.help, "histogram")
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", h.name, formatValue(bound), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", h.name, cum)
	fmt.Fprintf(b, "%s_sum %s\n", h.name, formatValue(math.Float64frombits(h.sumBits.Load())))
	fmt.Fprintf(b, "%s_count %d\n", h.name, h.count.Load())
}

// Instrument counts every request next answers in requests, labelled by
// status code, and observes its latency. A handler that never calls
// WriteHeader answered the implicit 200. A panic unwinding through next
// is neither counted nor timed, so panic recovery belongs inside.
func Instrument(next http.Handler, requests *CounterVec, latency *Histogram) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(rec, r)
		code := rec.status
		if code == 0 {
			code = http.StatusOK
		}
		requests.With(strconv.Itoa(code)).Inc()
		latency.Observe(time.Since(start).Seconds())
	})
}

// statusRecorder captures the first status code a handler wrote.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(p)
}
