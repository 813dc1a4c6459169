package resilience

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Doer is the slice of *http.Client the retry helper needs, so tests
// can substitute a scripted transport.
type Doer interface {
	Do(*http.Request) (*http.Response, error)
}

// RetryHTTP issues an HTTP request under p's deterministic backoff. It
// is the one bounded, Retry-After-honouring HTTP retry loop in the
// codebase — ingest sources and replica sync both run through it
// rather than growing their own slightly-different copies.
//
// newReq builds a FRESH request each attempt: request bodies are
// single-use, and per-attempt construction also lets callers recompute
// state between tries (a Range offset that advanced, say). Transport
// errors are retried under the policy, wrapped as "op: <err>".
//
// onResp classifies each response. Returning nil means done: the
// response — body still open unless onResp consumed it — is handed to
// the caller, and no further retry can happen, so body bytes streamed
// to the caller are never silently re-fetched. Returning an error
// closes the body (draining a little first so the connection can be
// reused) and retries only if the error is marked retryable —
// ClassifyStatus and StatusError produce the standard 429/5xx
// classification with the server's Retry-After honoured (capped by
// p.MaxDelay). Callers whose attempts have durable side effects (a
// resumable download) may mark their own onResp errors retryable even
// after consuming body bytes; they own that idempotence argument.
func RetryHTTP(ctx context.Context, client Doer, p Policy, op string,
	newReq func(ctx context.Context) (*http.Request, error),
	onResp func(*http.Response) error) (*http.Response, error) {
	if client == nil {
		client = http.DefaultClient
	}
	var out *http.Response
	err := Retry(ctx, p, func(int, int64) error {
		req, err := newReq(ctx)
		if err != nil {
			return err // malformed request: retrying cannot help
		}
		resp, err := client.Do(req)
		if err != nil {
			return MarkRetryable(fmt.Errorf("%s: %w", op, err))
		}
		cerr := onResp(resp)
		if cerr == nil {
			out = resp
			return nil
		}
		// Drain so the connection can be reused across attempts.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		return cerr
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ClassifyStatus marks err according to resp's status: 429 and 5xx are
// transient (the server is overloaded or broken, not the request), with
// a delay-seconds Retry-After header turned into an explicit backoff
// hint; every other status returns err unmarked — the request is wrong,
// not the weather.
func ClassifyStatus(resp *http.Response, err error) error {
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500 {
		if after, ok := ParseRetryAfter(resp.Header.Get("Retry-After")); ok {
			return MarkRetryAfter(err, after)
		}
		return MarkRetryable(err)
	}
	return err
}

// StatusError builds the standard "op: 503 Service Unavailable" error
// for a non-success response, classified by ClassifyStatus.
func StatusError(resp *http.Response, op string) error {
	return ClassifyStatus(resp, fmt.Errorf("%s: %s", op, resp.Status))
}

// ParseRetryAfter reads the delay-seconds form of Retry-After. The
// HTTP-date form is deliberately unsupported: it needs wall-clock
// arithmetic, and every server this pipeline talks to sends seconds.
func ParseRetryAfter(h string) (time.Duration, bool) {
	if h == "" {
		return 0, false
	}
	secs, err := strconv.Atoi(h)
	if err != nil || secs < 0 {
		return 0, false
	}
	return time.Duration(secs) * time.Second, true
}
