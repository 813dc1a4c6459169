package pipeline

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"net/http"
	"strings"

	"repro/internal/ingest"
	"repro/internal/resilience"
)

// HandlerConfig wires a Supervisor into an HTTP surface.
type HandlerConfig struct {
	// Token guards the mutating endpoints (bearer auth). Empty refuses
	// every mutation: an open POST /-/budget could lift the budget.
	Token string
	// Integrity, when non-nil, feeds the at-rest scrubber's latched
	// corrupt set into /readyz: a daemon sitting on damaged journals or
	// releases reports "corrupt" instead of publishing onward from them.
	Integrity interface{ CorruptArtifacts() []string }
	// Metrics, when non-nil, is mounted at /metrics (typically a
	// metrics.Registry handler carrying the scrub counters).
	Metrics http.Handler
}

// diskFullRetryAfter is the Retry-After (seconds) answered with a 503
// while the disk is full: long enough that a polite client does not
// hammer a full disk, short enough to resume promptly once an operator
// frees space.
const diskFullRetryAfter = "5"

// Handler exposes the supervisor and its ingester over HTTP:
//
//	POST /ingest     CSV body (x,y,t,value lines) → {"accepted":N,"quarantined":M}
//	POST /-/compact  fold the WAL into a snapshot and drop covered segments
//	GET  /stats      ingest lifetime counters + matrix dimensions
//	GET  /healthz    liveness
//	GET  /readyz     readiness: 503 while artifacts are latched corrupt,
//	                 while the disk is full or the WAL is poisoned, or
//	                 while the budget is exhausted (the last good
//	                 generation keeps serving, but no new windows will
//	                 publish)
//	GET  /status     full supervisor snapshot
//	POST /-/budget   {"budget": ε} — raise (or lower) the lifetime
//	                 budget; raising it resumes a degraded pipeline
//
// Resource exhaustion maps to 503 Service Unavailable with a
// Retry-After header: a full disk loses no acknowledged data, and the
// client should simply resend the unacknowledged tail once space
// returns. A poisoned WAL (failed fsync) is also 503, but without
// Retry-After — it needs a restart, not patience.
func Handler(s *Supervisor, cfg HandlerConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Integrity != nil {
			if corrupt := cfg.Integrity.CorruptArtifacts(); len(corrupt) > 0 {
				writeJSON(w, http.StatusServiceUnavailable, map[string]any{
					"status":    "corrupt",
					"artifact":  corrupt[0],
					"artifacts": corrupt,
					"pipeline":  s.Status(),
				})
				return
			}
		}
		if h := s.in.Health(); h.Poisoned || h.DiskFull {
			status := "poisoned"
			if h.DiskFull {
				status = "disk_full"
				w.Header().Set("Retry-After", diskFullRetryAfter)
			}
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"status":   status,
				"reason":   h.Reason,
				"pipeline": s.Status(),
			})
			return
		}
		st := s.Status()
		if st.BudgetExhausted {
			writeJSON(w, http.StatusServiceUnavailable, st)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Status())
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		cx, cy, ct := s.in.Dims()
		writeJSON(w, http.StatusOK, map[string]any{
			"stats": s.in.Stats(), "cx": cx, "cy": cy, "ct": ct,
		})
	})
	mux.HandleFunc("/ingest", func(w http.ResponseWriter, r *http.Request) {
		if !authorised(w, r, cfg.Token) {
			return
		}
		accepted, quarantined, err := s.in.Ingest(r.Context(), r.Body)
		if err != nil {
			// Accepted-and-committed readings stay durable even when the
			// stream dies halfway; report both the failure and the progress
			// so the client can resend exactly the unacknowledged tail.
			writeIngestError(w, err, map[string]any{
				"error": err.Error(), "accepted": accepted, "quarantined": quarantined,
			})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"accepted": accepted, "quarantined": quarantined,
		})
	})
	mux.HandleFunc("/-/compact", func(w http.ResponseWriter, r *http.Request) {
		if !authorised(w, r, cfg.Token) {
			return
		}
		if err := s.in.Compact(r.Context()); err != nil {
			writeIngestError(w, err, map[string]any{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"compacted": true})
	})
	mux.HandleFunc("/-/budget", func(w http.ResponseWriter, r *http.Request) {
		if !authorised(w, r, cfg.Token) {
			return
		}
		var body struct {
			Budget *float64 `json:"budget"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil || body.Budget == nil {
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": `body must be {"budget": <ε>}`})
			return
		}
		s.SetBudget(*body.Budget)
		writeJSON(w, http.StatusOK, map[string]any{"budget": *body.Budget})
	})
	if cfg.Metrics != nil {
		mux.Handle("/metrics", cfg.Metrics)
	}
	return mux
}

// writeIngestError maps a durable-write failure to its HTTP shape:
// disk-full → 503 + Retry-After (transient, resend later), poisoned WAL
// → 503 (needs a restart), anything else → 500.
func writeIngestError(w http.ResponseWriter, err error, body map[string]any) {
	switch {
	case resilience.IsDiskFull(err):
		w.Header().Set("Retry-After", diskFullRetryAfter)
		body["retryable"] = true
		writeJSON(w, http.StatusServiceUnavailable, body)
	case errors.Is(err, ingest.ErrWALPoisoned):
		writeJSON(w, http.StatusServiceUnavailable, body)
	default:
		writeJSON(w, http.StatusInternalServerError, body)
	}
}

// authorised enforces method and bearer-token auth for state-changing
// endpoints, writing the refusal itself and reporting whether to
// proceed. With no token configured nothing is authorised.
func authorised(w http.ResponseWriter, r *http.Request, token string) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, map[string]any{"error": "POST required"})
		return false
	}
	got := strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")
	if token == "" || subtle.ConstantTimeCompare([]byte(got), []byte(token)) != 1 {
		writeJSON(w, http.StatusForbidden, map[string]any{"error": "missing or invalid bearer token"})
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
