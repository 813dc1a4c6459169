package dist

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/resilience"
)

// Sentinel errors the wire layer maps onto HTTP statuses and workers
// use to classify refusals.
var (
	// ErrLeaseLost means the presented lease is not the cell's current
	// one: it expired and the cell was (or will be) reassigned. Work
	// done under it is discarded — a late duplicate from a partitioned
	// worker must not race the current holder.
	ErrLeaseLost = errors.New("dist: lease lost")
	// ErrDuplicate means the cell already has a journaled result from a
	// different lease. Harmless by idempotency, but refused so the
	// sender learns its work was redundant.
	ErrDuplicate = errors.New("dist: duplicate result for completed cell")
	// ErrInvalidResult means the uploaded value failed validation; the
	// attempt counts against the cell's cap.
	ErrInvalidResult = errors.New("dist: invalid result value")
)

// attemptsKey is the journal cell that persists per-cell lease-grant
// counts (only ever written for retried cells). It lives in the same
// checkpoint file as the results, under a key no experiment cell can
// collide with (experiment keys never contain ':').
const attemptsKey = "dist:attempts"

// cellState is the lease table's per-cell lifecycle.
type cellState int

const (
	cellPending cellState = iota
	cellLeased
	cellDone
	cellDead
)

// cell is one lease-table entry.
type cell struct {
	key       string
	idx       int
	state     cellState
	attempts  int    // lease grants so far, persisted once > 1
	worker    string // current holder (leased only)
	leaseID   string
	doneLease string // lease that delivered the accepted result
	expiry    time.Time
}

// Config parameterises a Coordinator.
type Config struct {
	// Experiment names the sweep (served to workers, shown in status).
	Experiment string
	// Keys is the full cell work list in canonical order; leases are
	// granted in this order.
	Keys []string
	// Spec is the opaque sweep description served verbatim to joining
	// workers.
	Spec json.RawMessage
	// TTL bounds a lease: a worker that has not heartbeat within TTL
	// loses the cell. Zero defaults to 30s.
	TTL time.Duration
	// MaxAttempts caps lease grants per cell before quarantine; zero
	// defaults to 3.
	MaxAttempts int
	// Journal durably records accepted results under their cell keys —
	// the same format as stpt-bench -checkpoint files, so the journal
	// IS the resume state and the reduction input. Required.
	Journal *resilience.Checkpoint
	// Validate, when non-nil, vets an uploaded value before it is
	// journaled; a validation failure counts as a failed attempt.
	Validate func(key string, value []byte) error
	// Clock is injectable for tests; nil means time.Now.
	Clock func() time.Time
	// Logf, when non-nil, receives one line per lifecycle event.
	Logf func(format string, args ...any)
}

// Coordinator owns the lease table. All methods are safe for concurrent
// use; the HTTP server and the in-process fallback drive the same
// state machine.
type Coordinator struct {
	cfg   Config
	nonce string // per-incarnation lease-id prefix

	mu       sync.Mutex
	cells    []*cell
	byKey    map[string]*cell
	open     int // cells not yet done and not dead
	finished chan struct{}
	leaseSeq uint64
	workers  map[string]time.Time // worker id -> last seen
	joined   int                  // total /join calls this incarnation
}

// NewCoordinator builds the lease table and folds in everything the
// journal already knows: previously accepted results stay done (restart
// = resume), and persisted attempt counts survive so a crash-looping
// cell cannot dodge its cap by crashing the coordinator too.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if len(cfg.Keys) == 0 {
		return nil, fmt.Errorf("dist: coordinator needs a non-empty work list")
	}
	if cfg.Journal == nil {
		return nil, fmt.Errorf("dist: coordinator needs a journal")
	}
	if cfg.TTL <= 0 {
		cfg.TTL = 30 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	var nb [8]byte
	if _, err := rand.Read(nb[:]); err != nil {
		return nil, fmt.Errorf("dist: lease nonce: %w", err)
	}
	c := &Coordinator{
		cfg:      cfg,
		nonce:    hex.EncodeToString(nb[:]),
		byKey:    make(map[string]*cell, len(cfg.Keys)),
		finished: make(chan struct{}),
		workers:  make(map[string]time.Time),
	}
	var attempts map[string]int
	cfg.Journal.Lookup(attemptsKey, &attempts)
	for i, key := range cfg.Keys {
		if key == "" || key == attemptsKey {
			return nil, fmt.Errorf("dist: work list key %d (%q) is empty or reserved", i, key)
		}
		if _, dup := c.byKey[key]; dup {
			return nil, fmt.Errorf("dist: duplicate work list key %q", key)
		}
		cl := &cell{key: key, idx: i, attempts: attempts[key]}
		switch {
		case cfg.Journal.Lookup(key, nil):
			cl.state = cellDone
		case cl.attempts >= cfg.MaxAttempts:
			cl.state = cellDead
		default:
			c.open++
		}
		c.cells = append(c.cells, cl)
		c.byKey[key] = cl
	}
	if c.open == 0 {
		close(c.finished)
	}
	return c, nil
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Join registers a worker and returns the sweep handshake.
func (c *Coordinator) Join(worker string) JoinReply {
	c.mu.Lock()
	c.joined++
	c.workers[worker] = c.cfg.Clock()
	c.mu.Unlock()
	c.logf("dist: worker %s joined", worker)
	return JoinReply{
		Experiment: c.cfg.Experiment,
		Spec:       c.cfg.Spec,
		TTLMillis:  c.cfg.TTL.Milliseconds(),
		Total:      len(c.cells),
	}
}

// Lease grants the lowest-index pending cell, after expiring stale
// leases. With nothing pending it answers Wait (cells still in flight)
// or Done (every cell done or dead).
func (c *Coordinator) Lease(worker string) LeaseGrant {
	now := c.cfg.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workers[worker] = now
	c.expireLocked(now)
	for _, cl := range c.cells {
		if cl.state != cellPending {
			continue
		}
		cl.state = cellLeased
		cl.worker = worker
		cl.attempts++
		c.leaseSeq++
		cl.leaseID = fmt.Sprintf("%s-%d", c.nonce, c.leaseSeq)
		cl.expiry = now.Add(c.cfg.TTL)
		if cl.attempts > 1 {
			c.persistAttemptsLocked()
		}
		c.logf("dist: leased %s to %s (attempt %d/%d)", cl.key, worker, cl.attempts, c.cfg.MaxAttempts)
		return LeaseGrant{Key: cl.key, LeaseID: cl.leaseID, Attempt: cl.attempts, TTLMillis: c.cfg.TTL.Milliseconds()}
	}
	if c.open == 0 {
		return LeaseGrant{Done: true}
	}
	return LeaseGrant{Wait: true}
}

// Heartbeat extends a held lease to now+TTL. ErrLeaseLost means the
// worker no longer holds the cell and must abandon it.
func (c *Coordinator) Heartbeat(worker, leaseID, key string) error {
	now := c.cfg.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workers[worker] = now
	c.expireLocked(now)
	cl, ok := c.byKey[key]
	if !ok || cl.state != cellLeased || cl.leaseID != leaseID {
		return ErrLeaseLost
	}
	cl.expiry = now.Add(c.cfg.TTL)
	return nil
}

// Deliver accepts a finished cell's value under a held lease. The value
// is validated, journaled durably, and only then acknowledged — a crash
// after Deliver returns nil can never lose the cell. Re-delivery under
// the accepting lease is an idempotent success (the worker may retry an
// upload whose 200 was lost); anything else is refused.
func (c *Coordinator) Deliver(worker, leaseID, key string, value []byte) error {
	now := c.cfg.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workers[worker] = now
	c.expireLocked(now)
	cl, ok := c.byKey[key]
	if !ok {
		return fmt.Errorf("dist: unknown cell %q", key)
	}
	switch cl.state {
	case cellDone:
		if cl.doneLease == leaseID {
			return nil // retried upload of the accepted result
		}
		return ErrDuplicate
	case cellLeased:
		if cl.leaseID != leaseID {
			return ErrLeaseLost
		}
	default:
		// Pending (expired, not yet regranted) or dead: the presented
		// lease is gone either way.
		return ErrLeaseLost
	}
	if c.cfg.Validate != nil {
		if err := c.cfg.Validate(key, value); err != nil {
			c.logf("dist: %s from %s failed validation: %v", key, worker, err)
			c.releaseLocked(cl)
			return fmt.Errorf("%w: %v", ErrInvalidResult, err)
		}
	}
	if err := c.cfg.Journal.Record(key, json.RawMessage(value)); err != nil {
		// Not durable: keep the lease so the worker retries the upload.
		return fmt.Errorf("dist: journaling %s: %w", key, err)
	}
	cl.state = cellDone
	cl.doneLease = leaseID
	cl.worker, cl.leaseID = "", ""
	c.open--
	c.logf("dist: %s delivered by %s (%d open)", key, worker, c.open)
	c.maybeFinishLocked()
	return nil
}

// Fail reports a failed attempt under a held lease: the cell returns to
// the pending pool, or to the dead-letter list once its attempts are
// exhausted.
func (c *Coordinator) Fail(worker, leaseID, key, msg string) error {
	now := c.cfg.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workers[worker] = now
	cl, ok := c.byKey[key]
	if !ok || cl.state != cellLeased || cl.leaseID != leaseID {
		return ErrLeaseLost
	}
	c.logf("dist: %s failed on %s (attempt %d/%d): %s", key, worker, cl.attempts, c.cfg.MaxAttempts, msg)
	c.releaseLocked(cl)
	return nil
}

// Expire reclaims timed-out leases; the server's janitor calls it so
// reassignment does not depend on worker traffic.
func (c *Coordinator) Expire() {
	now := c.cfg.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
}

// expireLocked releases every lease past its expiry.
func (c *Coordinator) expireLocked(now time.Time) {
	for _, cl := range c.cells {
		if cl.state == cellLeased && now.After(cl.expiry) {
			c.logf("dist: lease on %s (worker %s, attempt %d) expired", cl.key, cl.worker, cl.attempts)
			c.releaseLocked(cl)
		}
	}
}

// releaseLocked returns a leased cell to pending, or quarantines it
// once its attempt cap is spent. Attempt counts are persisted so a
// coordinator restart cannot reset a poisoned cell's budget.
func (c *Coordinator) releaseLocked(cl *cell) {
	cl.worker, cl.leaseID = "", ""
	if cl.attempts >= c.cfg.MaxAttempts {
		cl.state = cellDead
		c.open--
		c.logf("dist: %s quarantined after %d attempts", cl.key, cl.attempts)
		c.persistAttemptsLocked()
		c.maybeFinishLocked()
		return
	}
	cl.state = cellPending
	c.persistAttemptsLocked()
}

// persistAttemptsLocked journals the attempt counts of every retried
// cell. Best-effort: attempts are advisory (they bound future retries),
// and a journal write failure must not take down lease bookkeeping.
func (c *Coordinator) persistAttemptsLocked() {
	attempts := make(map[string]int)
	for _, cl := range c.cells {
		if cl.attempts > 1 {
			attempts[cl.key] = cl.attempts
		}
	}
	if len(attempts) == 0 {
		return
	}
	if err := c.cfg.Journal.Record(attemptsKey, attempts); err != nil {
		c.logf("dist: persisting attempt counts: %v", err)
	}
}

func (c *Coordinator) maybeFinishLocked() {
	if c.open == 0 {
		select {
		case <-c.finished:
		default:
			close(c.finished)
		}
	}
}

// Dead returns the quarantined cell keys, sorted.
func (c *Coordinator) Dead() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var dead []string
	for _, cl := range c.cells {
		if cl.state == cellDead {
			dead = append(dead, cl.key)
		}
	}
	sort.Strings(dead)
	return dead
}

// Joined reports how many /join handshakes this incarnation served.
func (c *Coordinator) Joined() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.joined
}

// Status is a point-in-time sweep snapshot (ops endpoint and tests).
type Status struct {
	Experiment string   `json:"experiment"`
	Total      int      `json:"total"`
	Done       int      `json:"done"`
	Leased     int      `json:"leased"`
	Pending    int      `json:"pending"`
	Dead       []string `json:"dead,omitempty"`
	Workers    int      `json:"workers"`
}

// Snapshot assembles a Status.
func (c *Coordinator) Snapshot() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Status{Experiment: c.cfg.Experiment, Total: len(c.cells), Workers: len(c.workers)}
	for _, cl := range c.cells {
		switch cl.state {
		case cellDone:
			s.Done++
		case cellLeased:
			s.Leased++
		case cellPending:
			s.Pending++
		case cellDead:
			s.Dead = append(s.Dead, cl.key)
		}
	}
	sort.Strings(s.Dead)
	return s
}

// Wait blocks until every cell is done or dead (or ctx ends). It
// returns nil only when ALL cells completed; quarantined cells make the
// sweep fail loudly with their keys, because a table reduced over a
// hole would silently recompute it serially at best.
func (c *Coordinator) Wait(ctx context.Context) error {
	select {
	case <-c.finished:
	case <-ctx.Done():
		return ctx.Err()
	}
	if dead := c.Dead(); len(dead) > 0 {
		return fmt.Errorf("dist: sweep finished with %d dead-letter cells after repeated failures: %v", len(dead), dead)
	}
	return nil
}
