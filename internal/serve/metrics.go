package serve

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/metrics"
)

// serveMetrics is the daemon's /metrics instrument set. Request counts
// and the latency histogram are updated by metrics.Instrument, the shed
// count by the admission middleware; the generation and replication
// gauges are callbacks read at scrape time, so they are always current
// without any bookkeeping on the serving path.
type serveMetrics struct {
	reg      *metrics.Registry
	requests *metrics.CounterVec // by status code
	shed     *metrics.Counter
	latency  *metrics.Histogram
}

func newServeMetrics(s *Server) *serveMetrics {
	reg := metrics.NewRegistry()
	m := &serveMetrics{
		reg:      reg,
		requests: reg.CounterVec("stpt_serve_requests_total", "HTTP requests served, by status code.", "code"),
		shed:     reg.Counter("stpt_serve_shed_total", "Requests shed by the admission gate (429)."),
		latency:  reg.Histogram("stpt_serve_request_seconds", "Request latency.", metrics.DefBuckets()),
	}
	reg.GaugeFunc("stpt_serve_generation", "Serving release-set generation id.", func() float64 {
		return float64(s.store.Generation())
	})
	reg.GaugeFunc("stpt_serve_inflight", "Queries currently admitted.", func() float64 {
		return float64(s.gate.inflight())
	})
	reg.GaugeFunc("stpt_serve_sync_staleness_seconds",
		"How long this replica has been behind its sync peer (0: caught up or not a follower).",
		func() float64 {
			if f := s.follower.Load(); f != nil {
				return f.Status().Staleness(time.Now()).Seconds()
			}
			return 0
		})
	reg.GaugeFunc("stpt_serve_synced_generation",
		"Peer generation last installed by follower sync (0 when not a follower).",
		func() float64 {
			if f := s.follower.Load(); f != nil {
				return float64(f.Status().SyncedGeneration)
			}
			return 0
		})
	reg.GaugeFunc("stpt_serve_sync_corrupt_refused_total",
		"Downloads refused by follower checksum verification.",
		func() float64 {
			if f := s.follower.Load(); f != nil {
				return float64(f.Status().CorruptRefused)
			}
			return 0
		})
	reg.ScrubGauges("stpt_serve", func() metrics.Scrubber { return s.Integrity() })
	return m
}

// withStaleness stamps every response from a follower replica with an
// X-STPT-Staleness header (seconds behind the sync peer, 0 when caught
// up) so gateways and clients can tell degraded answers from fresh ones
// without a second probe.
func (s *Server) withStaleness(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if f := s.follower.Load(); f != nil {
			stale := f.Status().Staleness(time.Now())
			w.Header().Set(StalenessHeader, strconv.FormatFloat(stale.Seconds(), 'f', 3, 64))
		}
		next.ServeHTTP(w, r)
	})
}

// StalenessHeader reports, on every response from a follower replica,
// how many seconds behind its sync peer the serving data is.
const StalenessHeader = "X-STPT-Staleness"
