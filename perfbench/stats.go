package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of the
// values: the smallest value with at least q·n values at or below it.
// Nearest rank never interpolates, so a reported p99 is a latency some
// request actually saw. It returns NaN for no values.
func percentile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// median is the midpoint of the values, averaging the middle pair for an
// even count; for the few-sample medians (releases, set-ups) this is
// steadier than nearest rank.
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean (NaN for no values).
func mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// Limits are the conditions a ladder rung must meet to count as
// sustained: p99 latency (timed from each request's due time) within
// P99Ms, no failed request, and no growing backlog — the generator's
// lateness over the last quarter of the rung may exceed its lateness
// over the first quarter by at most LagMs.
type Limits struct {
	P99Ms float64
	LagMs float64
}

// Rung is the outcome of one fixed-rate run on the ladder.
type Rung struct {
	Rate     float64 `json:"rate"`
	Sent     int     `json:"sent"`
	Failed   int     `json:"failed"`
	P99Ms    float64 `json:"p99_ms"`
	LagMs    float64 `json:"lag_ms"` // late-quarter minus early-quarter median lateness
	Achieved float64 `json:"achieved"`
}

// Pass reports whether the rung meets every limit.
func (l Limits) Pass(r Rung) bool {
	return r.Sent > 0 && r.Failed == 0 && r.P99Ms <= l.P99Ms && r.LagMs <= l.LagMs
}

// backlogGrowth measures whether the generator fell further behind over
// a run: median lateness of the last quarter of requests minus that of
// the first quarter, in ms. A server that keeps up shows ~0; one that
// saturates shows a lag that grows with every request.
func backlogGrowth(lateMs []float64) float64 {
	n := len(lateMs)
	if n < 4 {
		return 0
	}
	q := n / 4
	return median(lateMs[n-q:]) - median(lateMs[:q])
}

// searchLadder finds the highest rung of a fixed ascending ladder that
// meets the limits. It climbs from rung `from` in strides of `stride`
// rungs until one fails, then bisects the last stride, so an overloaded
// rung — whose backlog takes time to clear — is probed only after every
// slower rung on the way up. If rung `from` already fails, it bisects
// the rungs below it instead. It assumes a rung passes whenever a faster
// one does. It returns the index of the highest passing rung (-1 when
// none does) and every probed rung in probe order.
func searchLadder(ladder []float64, from, stride int, lim Limits, probe func(rate float64) Rung) (int, []Rung) {
	var tried []Rung
	try := func(i int) bool {
		r := probe(ladder[i])
		tried = append(tried, r)
		return lim.Pass(r)
	}
	lo, hi := -1, len(ladder) // invariant: lo passes (or is -1), hi fails (or is len)
	for i := from; i < len(ladder); i += stride {
		if !try(i) {
			hi = i
			break
		}
		lo = i
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if try(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, tried
}

// geometricLadder returns rates from lo up to hi growing by factor,
// rounded to whole requests per second.
func geometricLadder(lo, hi, factor float64) []float64 {
	var out []float64
	for r := lo; r <= hi*1.0000001; r *= factor {
		out = append(out, math.Round(r))
	}
	return out
}
