package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/resilience"
)

// recoverPanics converts a handler panic into a structured 500 while the
// process — and the connection — stay alive. The stdlib http.Server also
// recovers panics, but it does so by killing the connection with no
// response; a daemon serving analysts should answer with an error body
// and keep serving. If the handler already wrote a partial response the
// late WriteHeader is a no-op and the client sees a truncated body, which
// is the best that can be done once bytes are on the wire.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", rec))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// withDeadline attaches the per-request deadline: the server default, or
// the client's ?timeout= capped at Config.MaxTimeout. The deadline rides
// the request context, so it propagates through admission queueing, the
// fault-injection points, and evaluation alike — a request never costs
// more wall clock than its budget no matter where it stalls. It also
// threads the server's fault injector into the request context so chaos
// hooks fire under both Run-served and httptest-served requests.
func (s *Server) withDeadline(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d := s.cfg.DefaultTimeout
		if raw := r.URL.Query().Get("timeout"); raw != "" {
			pd, err := time.ParseDuration(raw)
			if err != nil || pd <= 0 {
				writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid timeout %q: want a positive duration like 500ms", raw))
				return
			}
			if pd > s.cfg.MaxTimeout {
				pd = s.cfg.MaxTimeout
			}
			d = pd
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		if in := resilience.InjectorFrom(s.base); in != nil && resilience.InjectorFrom(ctx) == nil {
			ctx = resilience.WithInjector(ctx, in)
		}
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// maxRetryAfterSeconds caps the advertised 429 backoff. Shed load
// clears in seconds here — capacity frees as soon as a query's O(1)
// lookup finishes — so telling a client to stay away for minutes (a
// misconfigured RetryAfter, or a duration arithmetic slip) would turn
// a momentary spike into self-inflicted unavailability.
const maxRetryAfterSeconds = 60

// retryAfterSeconds rounds the configured hint up to whole seconds and
// caps it.
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs > maxRetryAfterSeconds {
		return maxRetryAfterSeconds
	}
	return secs
}

// withAdmission gates the request through the bounded-concurrency
// controller: full queue → immediate 429 with Retry-After, deadline
// expiry while queued → 504. Only admitted requests reach the handler.
func (s *Server) withAdmission(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		release, err := s.gate.acquire(r.Context())
		if err != nil {
			if errors.Is(err, errShed) {
				s.met.shed.Inc()
				w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.RetryAfter)))
				writeError(w, http.StatusTooManyRequests, "server at capacity; retry later")
				return
			}
			writeError(w, http.StatusGatewayTimeout, "deadline exceeded while queued for admission")
			return
		}
		defer release()
		// The slot may have freed just as the deadline fired; re-check so
		// a dead request never burns evaluation work.
		if r.Context().Err() != nil {
			writeError(w, http.StatusGatewayTimeout, "deadline exceeded")
			return
		}
		next.ServeHTTP(w, r)
	})
}
