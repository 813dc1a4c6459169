package serve

import (
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/reqid"
	"repro/internal/resilience"
)

// errorBody is the structured error envelope every non-200 carries.
// Code, when set, is a stable machine-readable discriminator — clients
// branch on it instead of parsing the human-facing message.
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the client hanging up mid-body is not actionable
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorBody{Error: msg})
}

// queryResponse answers /query.
type queryResponse struct {
	Dataset string     `json:"dataset"`
	Query   grid.Query `json:"query"` // the query actually answered (post-clip)
	Sum     float64    `json:"sum"`
	Cells   int        `json:"cells"`
	Clipped bool       `json:"clipped,omitempty"`
}

// datasetInfo describes one loaded release for /datasets.
type datasetInfo struct {
	Name  string  `json:"name"`
	Cx    int     `json:"cx"`
	Cy    int     `json:"cy"`
	Ct    int     `json:"ct"`
	Total float64 `json:"total"`
}

// Handler assembles the full middleware stack:
//
//	reqid → staleness → metrics.Instrument → recoverPanics → mux
//	  (/query: withDeadline → withAdmission → handleQuery)
//
// Health endpoints bypass deadline and admission on purpose: a saturated
// server must still answer its balancer's probes instantly. Request-id
// and staleness stamping sit outermost so even a shed or panicking
// request carries both headers, and instrumentation sits outside panic
// recovery so a recovered panic's 500 is counted and timed.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/datasets", s.handleDatasets)
	mux.HandleFunc("/catalog", s.handleCatalog)
	mux.HandleFunc("/catalog/file", s.handleCatalogFile)
	mux.Handle("/metrics", s.met.reg.Handler())
	mux.HandleFunc("/-/reload", s.handleReload)
	mux.Handle("/query", s.withDeadline(s.withAdmission(http.HandlerFunc(s.handleQuery))))
	return reqid.Middleware(s.withStaleness(metrics.Instrument(s.recoverPanics(mux), s.met.requests, s.met.latency)))
}

// handleHealthz is liveness: the process is up and the handler stack
// functional. It stays 200 during drain — the process is alive precisely
// because it is still finishing requests.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// handleReadyz is readiness: false (503) while draining, while the
// admission gate is saturated, while the daemon is still serving
// nothing because its initial dataset load failed, or while a follower
// has never completed its first sync — so balancers steer new traffic
// away before it gets shed with 429s or 400s. A *failed reload* does
// not flip readiness: the previous generation keeps answering. Likewise
// a follower whose sync is failing stays ready — degraded, serving its
// last good generation — and reports how far behind it is; staleness is
// the gateway's signal, not a reason to stop answering. Transient 503s
// (saturation — the condition that clears by itself) carry a
// Retry-After hint so polite probes back off instead of tightening the
// loop that caused the saturation.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	f := s.follower.Load()
	corrupt := s.corruptArtifacts()
	switch {
	case s.draining.Load():
		writeError(w, http.StatusServiceUnavailable, "draining")
	case len(corrupt) > 0:
		// The at-rest scrubber found damage no repair has cleared: the
		// balancer must stop routing here — this replica would serve (or
		// 404) the damaged generation — until a repair or operator
		// intervention clears the latch.
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":    "corrupt",
			"artifact":  corrupt[0],
			"artifacts": corrupt,
		})
	case f != nil && s.store.Len() == 0:
		writeError(w, http.StatusServiceUnavailable, "awaiting first sync from "+f.Status().Peer)
	case f == nil && s.initialLoadFailed.Load():
		writeError(w, http.StatusServiceUnavailable, "initial dataset load failed; fix the files and reload")
	case s.gate.saturated():
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.RetryAfter)))
		writeError(w, http.StatusServiceUnavailable, "at capacity")
	default:
		body := map[string]any{
			"status":     "ready",
			"inflight":   s.gate.inflight(),
			"generation": s.store.Generation(),
		}
		if f != nil {
			st := f.Status()
			stale := st.Staleness(time.Now())
			if stale > 0 {
				body["status"] = "degraded"
			}
			body["sync"] = st
			body["staleness_seconds"] = stale.Seconds()
		}
		writeJSON(w, http.StatusOK, body)
	}
}

// corruptArtifacts returns the scrubber's latched corrupt set, nil
// without one.
func (s *Server) corruptArtifacts() []string {
	src := s.Integrity()
	if src == nil {
		return nil
	}
	return src.CorruptArtifacts()
}

// handleDatasets lists the loaded releases and their dimensions.
func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	names := s.store.Names()
	infos := make([]datasetInfo, 0, len(names))
	for _, n := range names {
		rel, err := s.store.Get(n)
		if err != nil {
			continue // removed between Names and Get; nothing to report
		}
		infos = append(infos, datasetInfo{
			Name: n, Cx: rel.Matrix.Cx, Cy: rel.Matrix.Cy, Ct: rel.Matrix.Ct,
			Total: rel.Matrix.Total(),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"datasets": infos, "generation": s.store.Generation(),
	})
}

// handleReload is the authenticated zero-downtime reload trigger:
//
//	POST /-/reload   with Authorization: Bearer <Config.ReloadToken>
//
// It re-reads every configured release and atomically swaps the new
// set in; in-flight queries finish on the old snapshot. Disabled (404)
// when no token is configured, 401 with a typed JSON body on a missing
// or wrong token (the comparison is constant-time, so the response
// leaks nothing about how close a guess came), and a failed reload
// answers 500 while the old data keeps serving.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if s.cfg.ReloadToken == "" {
		writeError(w, http.StatusNotFound, "reload not enabled (start with a reload token)")
		return
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	got := strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")
	if subtle.ConstantTimeCompare([]byte(got), []byte(s.cfg.ReloadToken)) != 1 {
		w.Header().Set("WWW-Authenticate", `Bearer realm="stpt-serve reload"`)
		writeJSON(w, http.StatusUnauthorized, errorBody{
			Error: "missing or invalid bearer token",
			Code:  "unauthorized",
		})
		return
	}
	if err := s.Reload(); err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("reload failed; previous datasets still serving: %v", err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "reloaded", "datasets": s.store.Names()})
}

// handleQuery answers one 3-orthotope range query:
//
//	GET /query?d=<release>&x0=&x1=&y0=&y1=&t0=&t1=[&clip=1][&timeout=500ms]
//
// Bounds are strict integers. By default a query must lie fully inside
// the release's box or it is refused with 400; with clip=1 the bounds
// are canonicalised and clipped, and only an empty intersection is
// refused. Either way a malformed request can never panic the handler or
// return a silently-wrong answer — validation happens before evaluation.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	// Chaos / test injection point: slow handlers block here against the
	// request deadline; injected panics exercise the recovery middleware.
	if err := resilience.Fire(ctx, resilience.FaultServeQuery, r); err != nil {
		if ctx.Err() != nil {
			writeError(w, http.StatusGatewayTimeout, "deadline exceeded")
			return
		}
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("injected fault: %v", err))
		return
	}
	if ctx.Err() != nil {
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded")
		return
	}

	rel, err := s.store.Get(r.URL.Query().Get("d"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	q, clip, err := parseQueryBounds(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	cx, cy, ct := rel.Index.Dims()
	if clip {
		sum, ok := query.Answer(rel.Index, q)
		if !ok {
			writeError(w, http.StatusBadRequest, fmt.Sprintf(
				"query %+v does not intersect release %q (%dx%dx%d)", q, rel.Name, cx, cy, ct))
			return
		}
		answered, _ := q.Canonicalize().Clip(cx, cy, ct)
		writeJSON(w, http.StatusOK, queryResponse{
			Dataset: rel.Name, Query: answered, Sum: sum,
			Cells: answered.Volume(), Clipped: answered != q,
		})
		return
	}
	if !q.ValidIn(cx, cy, ct) {
		writeError(w, http.StatusBadRequest, fmt.Sprintf(
			"query %+v outside release %q (%dx%dx%d); pass clip=1 to clamp", q, rel.Name, cx, cy, ct))
		return
	}
	writeJSON(w, http.StatusOK, queryResponse{
		Dataset: rel.Name, Query: q, Sum: rel.Index.RangeSum(q), Cells: q.Volume(),
	})
}

// parseQueryBounds reads the six bound parameters and the clip flag.
// Every bound must be present and a plain integer — no floats, no
// non-finite spellings, no overflow past int range — so garbage can
// never be reinterpreted as a huge or inverted region.
func parseQueryBounds(r *http.Request) (q grid.Query, clip bool, err error) {
	vals := r.URL.Query()
	for _, p := range []struct {
		name string
		dst  *int
	}{
		{"x0", &q.X0}, {"x1", &q.X1},
		{"y0", &q.Y0}, {"y1", &q.Y1},
		{"t0", &q.T0}, {"t1", &q.T1},
	} {
		raw := vals.Get(p.name)
		if raw == "" {
			return q, false, fmt.Errorf("missing required parameter %s", p.name)
		}
		n, perr := strconv.Atoi(raw)
		if perr != nil {
			return q, false, fmt.Errorf("parameter %s=%q is not an integer", p.name, raw)
		}
		*p.dst = n
	}
	switch raw := vals.Get("clip"); raw {
	case "", "0", "false":
	case "1", "true":
		clip = true
	default:
		return q, false, fmt.Errorf("parameter clip=%q: want 1/true or 0/false", raw)
	}
	return q, clip, nil
}
