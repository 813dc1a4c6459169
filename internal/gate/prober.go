package gate

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"
)

// StartProbes launches one health-probe loop per replica; they stop
// when ctx ends. Run calls this itself — tests drive it directly so
// they can use httptest servers without a real listener.
func (g *Gateway) StartProbes(ctx context.Context) {
	for _, rep := range g.replicas {
		go g.probeLoop(ctx, rep)
	}
}

// probeLoop polls one replica's /readyz. The health bit it maintains is
// advisory — routing prefers healthy replicas but falls back to trying
// anything when nothing looks healthy — so a probe can only improve
// placement, never cause an outage by itself. A replica answering
// /readyz 200 is routable even when degraded (serving stale data): the
// gateway's job is availability; staleness is reported, not shunned.
func (g *Gateway) probeLoop(ctx context.Context, rep *replica) {
	tick := time.NewTicker(g.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		g.probeOnce(ctx, rep)
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

func (g *Gateway) probeOnce(ctx context.Context, rep *replica) {
	pctx, cancel := context.WithTimeout(ctx, g.cfg.ProbeTimeout)
	defer cancel()
	was := rep.healthy.Load()
	ok := false
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, rep.url+"/readyz", nil)
	if err == nil {
		resp, derr := g.client().Do(req)
		if derr == nil {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			ok = resp.StatusCode == http.StatusOK
		}
	}
	rep.healthy.Store(ok)
	if ok != was {
		outcome := "up"
		if !ok {
			outcome = "down"
		}
		fmt.Fprintf(os.Stderr, "gate: event=probe replica=%s outcome=%s\n", rep.url, outcome)
	}
}
