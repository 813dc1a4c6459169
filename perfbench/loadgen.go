package main

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Request is one prepared query path. When Check is set, Want is the
// sum the benchmark's own index gives for it on the same file, and any
// other answer counts as a failed request.
type Request struct {
	Path  string
	Want  float64
	Check bool
}

// Sample times one request relative to the start of its run.
type Sample struct {
	Due, Start, End time.Duration
	OK              bool // 200 with the expected answer
	Wrong           bool // 200 with a different answer
}

// LatencyMs is the latency a user saw: from when the request was due,
// so a stall also charges every request that queued behind it.
func (s Sample) LatencyMs() float64 { return float64(s.End-s.Due) / 1e6 }

// LateMs is how late the generator sent the request.
func (s Sample) LateMs() float64 { return float64(s.Start-s.Due) / 1e6 }

// ServiceMs is the time from send to the full response.
func (s Sample) ServiceMs() float64 { return float64(s.End-s.Start) / 1e6 }

// Loader is an open-loop load generator. It sends from len(clients)
// goroutines, each owning one keep-alive connection, so the process
// never holds more connections or request goroutines than that.
type Loader struct {
	base    string
	clients []*http.Client
	reqs    []Request
	offset  int
	tr      *Tracer
	started time.Time // start of the last Run: Sample times are offsets from it
}

// newLoader builds a loader with conns connections against base; with
// a tracer, every request is a "client.query" span.
func newLoader(base string, conns int, reqs []Request, tr *Tracer) *Loader {
	l := &Loader{base: base, reqs: reqs, tr: tr}
	for i := 0; i < conns; i++ {
		l.clients = append(l.clients, oneConnClient())
	}
	return l
}

// oneConnClient is an HTTP client limited to a single keep-alive
// connection.
func oneConnClient() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// Close drops the loader's idle connections.
func (l *Loader) Close() {
	for _, c := range l.clients {
		c.CloseIdleConnections()
	}
}

// poissonSchedule returns the due offsets of a Poisson arrival process
// at rate requests per second over dur.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

// fixedSchedule returns due offsets at a constant rate over dur.
func fixedSchedule(rate float64, dur time.Duration) []time.Duration {
	n := int(rate * dur.Seconds())
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return out
}

// Run sends one request per due offset and waits for all of them. The
// next request in due order goes out on the first free connection, at
// its due time or — if every connection is busy — as soon as one frees
// up; either way its latency counts from the due time.
func (l *Loader) Run(due []time.Duration) []Sample {
	samples := make([]Sample, len(due))
	var cursor atomic.Int64
	offset := l.offset
	l.offset += len(due)
	start := time.Now()
	l.started = start
	var wg sync.WaitGroup
	for _, c := range l.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1) - 1)
				if i >= len(due) {
					return
				}
				if d := due[i] - time.Since(start); d > 0 {
					time.Sleep(d)
				}
				req := l.reqs[(offset+i)%len(l.reqs)]
				s := time.Since(start)
				ok, wrong := l.do(c, req)
				e := time.Since(start)
				samples[i] = Sample{Due: due[i], Start: s, End: e, OK: ok, Wrong: wrong}
				l.tr.Add("client.query", int64(offset+i), -1, start.Add(s), start.Add(e), "")
			}
		}(c)
	}
	wg.Wait()
	return samples
}

// do sends one request and validates the answer: ok is a 200 with the
// expected sum, wrong a 200 with any other.
func (l *Loader) do(c *http.Client, req Request) (ok, wrong bool) {
	resp, err := c.Get(l.base + req.Path)
	if err != nil {
		return false, false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return false, false
	}
	if !req.Check {
		return true, false
	}
	got, parsed := parseSum(body)
	if !parsed || got != req.Want {
		return false, true
	}
	return true, false
}

// parseSum extracts the "sum" field of a /query answer.
func parseSum(body []byte) (float64, bool) {
	key := []byte(`"sum":`)
	i := bytes.Index(body, key)
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(key):]
	j := bytes.IndexAny(rest, ",}")
	if j < 0 {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(bytes.TrimSpace(rest[:j])), 64)
	return v, err == nil
}

// LoadStats summarises one open-loop run.
type LoadStats struct {
	Sent, Failed  int
	P50Ms, P99Ms  float64 // from due time
	LateP99Ms     float64 // how late the generator sent
	LagMs         float64 // backlog growth, see backlogGrowth
	ServiceMeanMs float64 // client-observed send-to-response mean
	Achieved      float64 // completed requests per second
}

// summarize computes a run's statistics. With window > 0 the p99 is the
// median of the p99s of consecutive windows of that length (by due
// time), so one stray stall — a GC pause, a neighbour's burst — moves
// one window's p99 rather than the whole run's; each window must hold at
// least 1000 requests (ten beyond its p99), else the p99 is taken over
// the whole run.
func summarize(samples []Sample, window time.Duration) LoadStats {
	st := LoadStats{Sent: len(samples)}
	if len(samples) == 0 {
		return st
	}
	lat := make([]float64, len(samples))
	late := make([]float64, len(samples))
	svc := make([]float64, len(samples))
	var last time.Duration
	for i, s := range samples {
		if !s.OK {
			st.Failed++
		}
		lat[i], late[i], svc[i] = s.LatencyMs(), s.LateMs(), s.ServiceMs()
		if s.End > last {
			last = s.End
		}
	}
	st.P50Ms = percentile(lat, 0.50)
	st.P99Ms = windowedP99(samples, lat, window)
	st.LateP99Ms = percentile(late, 0.99)
	st.LagMs = backlogGrowth(late)
	st.ServiceMeanMs = mean(svc)
	st.Achieved = float64(len(samples)) / last.Seconds()
	return st
}

// rung converts a ladder run into its Rung record.
func (st LoadStats) rung(rate float64) Rung {
	return Rung{Rate: rate, Sent: st.Sent, Failed: st.Failed, P99Ms: st.P99Ms, LagMs: st.LagMs, Achieved: st.Achieved}
}

// windowedP99 is the median over consecutive windows of the per-window
// p99 (see summarize).
func windowedP99(samples []Sample, lat []float64, window time.Duration) float64 {
	if window <= 0 {
		return percentile(lat, 0.99)
	}
	var p99s []float64
	for lo := 0; lo < len(samples); {
		hi := lo
		for hi < len(samples) && samples[hi].Due < samples[lo].Due+window {
			hi++
		}
		if hi-lo < 1000 {
			return percentile(lat, 0.99)
		}
		p99s = append(p99s, percentile(lat[lo:hi], 0.99))
		lo = hi
	}
	return median(p99s)
}
