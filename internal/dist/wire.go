// Package dist is the fault-tolerant distributed sweep driver: a
// coordinator shards deterministic, idempotent sweep cells (keyed by
// their checkpoint ids, e.g. "fig6/CER/uniform/stpt/rep3") across
// worker processes over HTTP as time-bounded leases.
//
// Robustness is the design centre, not an afterthought:
//
//   - A worker that dies, hangs, or is SIGKILLed mid-cell simply has
//     its lease expire; the cell is reassigned with a bounded per-cell
//     attempt cap, and cells that keep failing are quarantined to a
//     dead-letter list instead of wedging the sweep.
//   - Cells are idempotent checkpoint units, so replays are harmless:
//     the coordinator deduplicates results by cell key, refuses late
//     deliveries from expired leases, and journals accepted values
//     durably (a journal.Checkpoint, the exact -checkpoint file) BEFORE
//     acknowledging them — killing and restarting the coordinator
//     mid-sweep resumes from the journal.
//   - Reduction stays bit-identical to a serial run: the journal feeds
//     the unchanged in-process reduction, which folds cells in
//     canonical order regardless of delivery order.
//   - With zero workers joined, the coordinator steps aside and the
//     caller's ordinary in-process sweep runs the missing cells into
//     the same journal.
//
// The package is generic over the work: cells are opaque keys executed
// by a caller-supplied function returning opaque JSON values. The
// experiments package provides both sides for the paper's sweeps.
package dist

import (
	"encoding/json"
	"fmt"
)

// JoinRequest announces a worker to the coordinator.
type JoinRequest struct {
	Worker string `json:"worker"`
}

// JoinReply hands a joining worker everything it needs to execute
// cells: the experiment's name, the opaque sweep spec, the lease TTL it
// must heartbeat within, and the sweep size (for logs).
type JoinReply struct {
	Experiment string          `json:"experiment"`
	Spec       json.RawMessage `json:"spec"`
	TTLMillis  int64           `json:"ttl_ms"`
	Total      int             `json:"total"`
}

// LeaseRequest asks for one cell of work.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseGrant is the coordinator's answer to a lease request: exactly
// one of Done (sweep finished, go home), Wait (nothing leasable right
// now, poll again) or a granted cell (Key + LeaseID + Attempt + TTL).
type LeaseGrant struct {
	Done      bool   `json:"done,omitempty"`
	Wait      bool   `json:"wait,omitempty"`
	Key       string `json:"key,omitempty"`
	LeaseID   string `json:"lease_id,omitempty"`
	Attempt   int    `json:"attempt,omitempty"`
	TTLMillis int64  `json:"ttl_ms,omitempty"`
}

// Heartbeat extends a held lease.
type Heartbeat struct {
	Worker  string `json:"worker"`
	LeaseID string `json:"lease_id"`
	Key     string `json:"key"`
}

// Result delivers a finished cell (Value set) or reports a failed
// attempt (Err set) under a held lease.
type Result struct {
	Worker  string          `json:"worker"`
	LeaseID string          `json:"lease_id"`
	Key     string          `json:"key"`
	Value   json.RawMessage `json:"value,omitempty"`
	Err     string          `json:"err,omitempty"`
}

// DecodeJoinReply strictly parses a join reply.
func DecodeJoinReply(raw []byte) (JoinReply, error) {
	var r JoinReply
	if err := json.Unmarshal(raw, &r); err != nil {
		return JoinReply{}, fmt.Errorf("dist: decoding join reply: %w", err)
	}
	if r.Experiment == "" {
		return JoinReply{}, fmt.Errorf("dist: join reply names no experiment")
	}
	if len(r.Spec) == 0 || !json.Valid(r.Spec) {
		return JoinReply{}, fmt.Errorf("dist: join reply carries no valid spec")
	}
	if r.TTLMillis <= 0 {
		return JoinReply{}, fmt.Errorf("dist: join reply has non-positive lease TTL %d", r.TTLMillis)
	}
	if r.Total <= 0 {
		return JoinReply{}, fmt.Errorf("dist: join reply has non-positive cell count %d", r.Total)
	}
	return r, nil
}

// DecodeLeaseGrant strictly parses a lease grant: malformed or
// ambiguous grants (none or several of Done/Wait/Key) are refused so a
// confused — or adversarial — coordinator cannot wedge a worker in an
// undefined state.
func DecodeLeaseGrant(raw []byte) (LeaseGrant, error) {
	var g LeaseGrant
	if err := json.Unmarshal(raw, &g); err != nil {
		return LeaseGrant{}, fmt.Errorf("dist: decoding lease grant: %w", err)
	}
	states := 0
	if g.Done {
		states++
	}
	if g.Wait {
		states++
	}
	if g.Key != "" {
		states++
	}
	if states != 1 {
		return LeaseGrant{}, fmt.Errorf("dist: lease grant must carry exactly one of done/wait/key, got %d", states)
	}
	if g.Key != "" {
		if g.LeaseID == "" {
			return LeaseGrant{}, fmt.Errorf("dist: lease grant for %q carries no lease id", g.Key)
		}
		if g.Attempt < 1 {
			return LeaseGrant{}, fmt.Errorf("dist: lease grant for %q has attempt %d, want >= 1", g.Key, g.Attempt)
		}
		if g.TTLMillis <= 0 {
			return LeaseGrant{}, fmt.Errorf("dist: lease grant for %q has non-positive TTL %d", g.Key, g.TTLMillis)
		}
	}
	return g, nil
}

// DecodeHeartbeat strictly parses a heartbeat.
func DecodeHeartbeat(raw []byte) (Heartbeat, error) {
	var h Heartbeat
	if err := json.Unmarshal(raw, &h); err != nil {
		return Heartbeat{}, fmt.Errorf("dist: decoding heartbeat: %w", err)
	}
	if h.Worker == "" || h.LeaseID == "" || h.Key == "" {
		return Heartbeat{}, fmt.Errorf("dist: heartbeat missing worker/lease/key")
	}
	return h, nil
}

// DecodeResult strictly parses a result upload: exactly one of Value
// (a valid JSON cell value) or Err must be present.
func DecodeResult(raw []byte) (Result, error) {
	var r Result
	if err := json.Unmarshal(raw, &r); err != nil {
		return Result{}, fmt.Errorf("dist: decoding result: %w", err)
	}
	if r.Worker == "" || r.LeaseID == "" || r.Key == "" {
		return Result{}, fmt.Errorf("dist: result missing worker/lease/key")
	}
	hasValue := len(r.Value) > 0
	if hasValue == (r.Err != "") {
		return Result{}, fmt.Errorf("dist: result for %q must carry exactly one of value or err", r.Key)
	}
	if hasValue && !json.Valid(r.Value) {
		return Result{}, fmt.Errorf("dist: result for %q carries invalid JSON", r.Key)
	}
	return r, nil
}
