package ingest

import (
	"context"
	"io"
	"net/http"
	"time"

	"repro/internal/resilience"
)

// DefaultSourcePolicy is the retry schedule for fetching readings over
// HTTP: five attempts with deterministic exponential backoff (500ms,
// 1s, 2s, 4s) capped at 15s — the same schedule every run, because a
// reproducible pipeline should not randomise even its failure handling.
func DefaultSourcePolicy() resilience.Policy {
	return resilience.Policy{MaxAttempts: 5, BaseDelay: 500 * time.Millisecond, MaxDelay: 15 * time.Second}
}

// FetchHTTP GETs a readings CSV, retrying transient failures (network
// errors, 429, 5xx) under the policy's deterministic backoff and
// honouring the server's Retry-After header when present (capped by
// Policy.MaxDelay). Non-transient statuses (4xx other than 429) fail
// immediately. On success the caller owns the returned body; a failure
// mid-body is NOT retried here — by then readings may already be
// committed, and re-streaming from offset zero would double-count them.
// The caller's WAL-acknowledged prefix is durable either way; only the
// unacknowledged tail needs a resend. The bounded retry loop itself is
// resilience.RetryHTTP, shared with replica sync.
func FetchHTTP(ctx context.Context, client *http.Client, url string, p resilience.Policy) (io.ReadCloser, error) {
	if client == nil {
		client = http.DefaultClient
	}
	op := "ingest: fetching " + url
	resp, err := resilience.RetryHTTP(ctx, client, p, op,
		func(ctx context.Context) (*http.Request, error) {
			return http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		},
		func(resp *http.Response) error {
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			return resilience.StatusError(resp, op)
		})
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}
