package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// A server that freezes once must charge the freeze to every request
// that was due while it lasted — not only to the one in flight — and
// the generator's lateness must show it.
func TestStallChargedToEveryRequestDueDuringIt(t *testing.T) {
	const stall = 200 * time.Millisecond
	var mu sync.Mutex
	var n int
	var stallStart, stallEnd time.Time
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		n++
		if n == 200 {
			stallStart = time.Now()
			stallEnd = stallStart.Add(stall)
		}
		until := stallEnd
		mu.Unlock()
		if d := time.Until(until); d > 0 {
			time.Sleep(d)
		}
		w.Write([]byte(`{"dataset":"d","sum":1.5,"cells":1}`))
	}))
	defer srv.Close()

	l := newLoader(srv.URL, 2, []Request{{Path: "/query", Want: 1.5, Check: true}}, nil)
	defer l.Close()
	start := time.Now()
	samples := l.Run(fixedSchedule(1000, time.Second))

	from, to := stallStart.Sub(start), stallEnd.Sub(start)
	charged := 0
	for _, s := range samples {
		if !s.OK {
			t.Fatalf("request due at %v failed", s.Due)
		}
		// Skip the edges, where the clocks of server and loader differ
		// by the few microseconds between start and the run's own start.
		if s.Due <= from+time.Millisecond || s.Due >= to-time.Millisecond {
			continue
		}
		charged++
		if want := float64(to-s.Due-time.Millisecond) / 1e6; s.LatencyMs() < want {
			t.Errorf("request due %v into the stall saw %.2f ms, want ≥ %.2f ms", s.Due-from, s.LatencyMs(), want)
		}
	}
	if charged < 150 {
		t.Fatalf("only %d requests fell due during the %v stall", charged, stall)
	}
	st := summarize(samples, 0)
	if st.LateP99Ms < 100 {
		t.Errorf("client late p99 %.2f ms does not show the %v stall", st.LateP99Ms, stall)
	}
	if st.P99Ms < 150 {
		t.Errorf("p99 %.2f ms does not show the %v stall", st.P99Ms, stall)
	}
}

func TestWrongAnswerIsFlagged(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("code") == "429" {
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{"dataset":"d","query":{"X0":0},"sum":2.25e+03,"cells":4}`))
	}))
	defer srv.Close()
	l := newLoader(srv.URL, 1, nil, nil)
	defer l.Close()
	for _, c := range []struct {
		req         Request
		ok, wrong   bool
		description string
	}{
		{Request{Path: "/q", Want: 2250, Check: true}, true, false, "right sum"},
		{Request{Path: "/q", Want: 2250.0000001, Check: true}, false, true, "sum off in the last digits"},
		{Request{Path: "/q", Check: false}, true, false, "unchecked"},
		{Request{Path: "/q?code=429", Want: 2250, Check: true}, false, false, "refused"},
	} {
		ok, wrong := l.do(l.clients[0], c.req)
		if ok != c.ok || wrong != c.wrong {
			t.Errorf("%s: ok=%v wrong=%v, want %v %v", c.description, ok, wrong, c.ok, c.wrong)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var v []float64
	for i := 100; i >= 1; i-- {
		v = append(v, float64(i))
	}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1},
	} {
		if got := percentile(v, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single value p99 = %v", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing should be NaN")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 1,3,5 = %v, want 3", got)
	}
	if v[0] != 100 {
		t.Error("percentile must not reorder its input")
	}
}

func TestWindowedP99IgnoresOneBadWindow(t *testing.T) {
	var samples []Sample
	for i := 0; i < 5000; i++ {
		lat := time.Millisecond
		if i >= 1000 && i < 1100 { // a 100-request stall in the second window
			lat = 50 * time.Millisecond
		}
		due := time.Duration(i) * time.Millisecond
		samples = append(samples, Sample{Due: due, Start: due, End: due + lat, OK: true})
	}
	if got := summarize(samples, 0).P99Ms; got != 50 {
		t.Errorf("whole-run p99 = %v, want 50 (the stall)", got)
	}
	if got := summarize(samples, time.Second).P99Ms; got != 1 {
		t.Errorf("windowed p99 = %v, want 1 (median of five windows)", got)
	}
	// Windows too small for ten samples beyond their p99 fall back to
	// the whole run.
	if got := summarize(samples[:1500], 100*time.Millisecond).P99Ms; got != 50 {
		t.Errorf("small-window p99 = %v, want the whole-run 50", got)
	}
}

func TestBacklogGrowth(t *testing.T) {
	flat := make([]float64, 400)
	growing := make([]float64, 400)
	for i := range flat {
		flat[i] = 0.1
		growing[i] = float64(i) * 0.1 // falls 0.1 ms further behind per request
	}
	if g := backlogGrowth(flat); g != 0 {
		t.Errorf("flat lateness grew by %v", g)
	}
	if g := backlogGrowth(growing); g < 25 {
		t.Errorf("growing lateness measured %v ms growth, want ≈30", g)
	}
}

func TestSearchLadder(t *testing.T) {
	ladder := geometricLadder(1000, 16000, 1.05)
	if ladder[0] != 1000 || ladder[len(ladder)-1] > 16000 || len(ladder) != 57 {
		t.Fatalf("ladder %v", ladder)
	}
	lim := Limits{P99Ms: 20, LagMs: 5}
	knee := func(capacity float64) func(float64) Rung {
		return func(rate float64) Rung {
			r := Rung{Rate: rate, Sent: 100, P99Ms: 2, Achieved: rate}
			if rate > capacity {
				r.P99Ms = 80
			}
			return r
		}
	}
	for _, capacity := range []float64{1500, 2000, 4000, 7777, 15000} {
		best, tried := searchLadder(ladder, 14, 4, lim, knee(capacity))
		if best < 0 || ladder[best] > capacity || (best+1 < len(ladder) && ladder[best+1] <= capacity) {
			t.Errorf("capacity %v: picked %v", capacity, ladder[best])
		}
		failed := 0
		for _, r := range tried {
			if r.Rate > capacity {
				failed++
			}
		}
		if failed > 3 {
			t.Errorf("capacity %v: %d overloaded probes in %v", capacity, failed, tried)
		}
	}
	if best, _ := searchLadder(ladder, 14, 4, lim, knee(1)); best != -1 {
		t.Errorf("nothing passes: got rung %d", best)
	}
	if best, _ := searchLadder(ladder, 0, 4, lim, knee(1e9)); best != len(ladder)-1 {
		t.Errorf("everything passes: got rung %d", best)
	}

	// The backlog rule: a rung whose p99 looks fine but whose generator
	// fell further and further behind is not sustained, and neither is
	// one with a failed request.
	backlog := func(rate float64) Rung {
		r := Rung{Rate: rate, Sent: 100, P99Ms: 2}
		if rate > 3000 {
			r.LagMs = 12
		}
		return r
	}
	if best, _ := searchLadder(ladder, 0, 4, lim, backlog); ladder[best] > 3000 {
		t.Errorf("growing backlog above 3000 req/s ignored: picked %v", ladder[best])
	}
	if lim.Pass(Rung{Rate: 1, Sent: 10, Failed: 1, P99Ms: 1}) {
		t.Error("a rung with a failed request passed")
	}
	if lim.Pass(Rung{Rate: 1}) {
		t.Error("a rung that sent nothing passed")
	}
}

func TestPromDelta(t *testing.T) {
	before, err := parseProm(strings.NewReader(`# HELP stpt_serve_requests_total HTTP requests served, by status code.
# TYPE stpt_serve_requests_total counter
stpt_serve_requests_total{code="200"} 10
stpt_serve_shed_total 1
stpt_serve_request_seconds_bucket{le="0.0005"} 8
stpt_serve_request_seconds_bucket{le="+Inf"} 10
stpt_serve_request_seconds_sum 0.004
stpt_serve_request_seconds_count 10
stpt_serve_generation 3
`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(`stpt_serve_requests_total{code="200"} 110
stpt_serve_requests_total{code="429"} 5
stpt_serve_shed_total 6
stpt_serve_request_seconds_bucket{le="+Inf"} 115
stpt_serve_request_seconds_sum 0.104
stpt_serve_request_seconds_count 115
stpt_serve_generation 4
`))
	if err != nil {
		t.Fatal(err)
	}
	d := Delta(before, after)
	if got := d.Family("stpt_serve_requests_total"); got != 105 {
		t.Errorf("requests delta %v, want 105 (a new label counts from zero)", got)
	}
	if got := d["stpt_serve_shed_total"]; got != 5 {
		t.Errorf("shed delta %v", got)
	}
	mean, n := d.HistMean("stpt_serve_request_seconds")
	if n != 105 || math.Abs(mean-0.1/105) > 1e-15 {
		t.Errorf("histogram mean %v over %v, want %v over 105", mean, n, 0.1/105)
	}
	if _, n := (Scrape{}).HistMean("missing"); n != 0 {
		t.Error("absent histogram has observations")
	}
	sum := sumDeltas([]Scrape{before, before}, []Scrape{after, after})
	if got := sum["stpt_serve_request_seconds_count"]; got != 210 {
		t.Errorf("summed replica count %v, want 210", got)
	}
	if _, err := parseProm(strings.NewReader("novalue\n")); err == nil {
		t.Error("a line without a value parsed")
	}
}

// The metric lists the program prints must be exactly BENCHMARK.json's.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark directory")
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer, spec.PerLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: program lists %d metrics, BENCHMARK.json %d", c.name, len(c.got), len(c.want))
			continue
		}
		for i := range c.got {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d]: program %v, BENCHMARK.json %v", c.name, i, c.got[i], c.want[i])
			}
		}
	}
}
