package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Scrape is one parsed Prometheus text exposition: every sample keyed by
// its series name exactly as printed, labels included
// (`stpt_serve_requests_total{code="200"}`).
type Scrape map[string]float64

// parseProm reads the text exposition format: comment lines are
// skipped, every other line is `<series> <value>`.
func parseProm(r io.Reader) (Scrape, error) {
	out := Scrape{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// Family sums every series of a metric family (all label values).
func (s Scrape) Family(name string) float64 {
	var total float64
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// Delta is the change of every series between two scrapes of the same
// process (after minus before); series absent before count from zero.
func Delta(before, after Scrape) Scrape {
	out := Scrape{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// HistMean is the mean observation of a histogram over a delta: the
// `_sum` change divided by the `_count` change, with the count. The
// daemons' latency buckets start at 0.5 ms, too coarse for percentiles
// of sub-millisecond answers, but _sum/_count are exact.
func (s Scrape) HistMean(name string) (mean float64, count float64) {
	count = s[name+"_count"]
	if count == 0 {
		return 0, 0
	}
	return s[name+"_sum"] / count, count
}

// scrapeAll fetches /metrics from every base URL.
func scrapeAll(client *http.Client, bases []string) ([]Scrape, error) {
	out := make([]Scrape, len(bases))
	for i, b := range bases {
		resp, err := client.Get(b + "/metrics")
		if err != nil {
			return nil, err
		}
		out[i], err = parseProm(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("%s/metrics: %w", b, err)
		}
	}
	return out, nil
}

// sumDeltas adds per-process deltas into one scrape, so the two replicas
// of the serve tier read as one layer.
func sumDeltas(before, after []Scrape) Scrape {
	out := Scrape{}
	for i := range after {
		for k, v := range Delta(before[i], after[i]) {
			out[k] += v
		}
	}
	return out
}

var probeClient = &http.Client{Timeout: 5 * time.Second}
