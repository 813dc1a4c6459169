// Package pipeline is the supervised continual-release loop: it drives
// the ingest WAL through windowed STPT-style sanitisation, tree-composed
// ledger charging, atomic publication, and query-daemon reload as one
// long-running process that survives SIGKILL at any instant.
//
// The heart of the package is the window manifest — a crash-safe,
// append-only journal (see internal/journal for its checksummed-line
// format and recovery rules) recording each window's progress through
// the fixed lifecycle
//
//	cut → released → charged → published → reloaded
//
// Every stage makes its side effect durable strictly *before* its
// manifest record is appended, so the journal never claims work that
// did not happen. Recovery therefore reads the last record and resumes
// from the exact next step: a window is never lost, never published
// twice, and never charged twice — the stages themselves are idempotent
// (deterministic noise from a recorded seed, expected-spend arithmetic
// in dp.TreeComposer, byte-identical atomic rewrites), so redoing the
// step a crash interrupted converges on the same bytes.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/journal"
	"repro/internal/resilience"
)

// State is one step of a window's fixed lifecycle.
type State string

// The lifecycle, in order. Each state's record is appended only after
// the state's side effect is durable:
//
//	StateCut       the window's raw sub-matrix is frozen in staging
//	StateReleased  the sanitised (noised) release's checksum is journalled
//	StateCharged   the tree-composed ε charge is fsynced in the ledger
//	StatePublished the release is atomically visible in the output dir
//	StateReloaded  the query daemon was told (or nothing listens)
const (
	StateCut       State = "cut"
	StateReleased  State = "released"
	StateCharged   State = "charged"
	StatePublished State = "published"
	StateReloaded  State = "reloaded"
)

// stateOrder gives the lifecycle position of each state; successor
// states differ by exactly one.
var stateOrder = map[State]int{
	StateCut: 0, StateReleased: 1, StateCharged: 2, StatePublished: 3, StateReloaded: 4,
}

// next returns the state following s, or "" from the terminal state.
func (s State) next() State {
	switch s {
	case StateCut:
		return StateReleased
	case StateReleased:
		return StateCharged
	case StateCharged:
		return StatePublished
	case StatePublished:
		return StateReloaded
	}
	return ""
}

// Record is one manifest line: window w reached State. The optional
// fields carry exactly what recovery needs to redo the *next* stage
// deterministically — the cut's time span and noise seed, the staged
// release's checksum, the charge's arithmetic.
type Record struct {
	Seq    int   `json:"seq"`
	Window int   `json:"window"`
	State  State `json:"state"`
	// T0, T1 (cut records): the window's half-open interval span.
	T0 int `json:"t0,omitempty"`
	T1 int `json:"t1,omitempty"`
	// Seed (cut records): the deterministic noise seed frozen at cut
	// time, so a release redone after a crash is bit-identical.
	Seed int64 `json:"seed,omitempty"`
	// Checksum (released records): CRC-32 of the release bytes, letting
	// publish verify it ships exactly what was sanitised.
	Checksum uint32 `json:"crc,omitempty"`
	// Eps and Levels (charged records): the audit trail of the tree
	// charge — ε added and which tree levels were opened.
	Eps    float64 `json:"eps,omitempty"`
	Levels []int   `json:"levels,omitempty"`
}

// ErrManifestPoisoned marks a manifest whose last fsync failed: the
// durable state is unknowable through the live handle, so every further
// append is refused until a restart re-reads the file.
var ErrManifestPoisoned = errors.New("pipeline: manifest poisoned by a failed fsync")

// ErrManifestCorrupt wraps any interior damage found at open time —
// checksum mismatch, sequence gap, or an impossible state transition.
// Unlike a torn tail, corruption is never self-healed: the supervisor
// must refuse to run rather than guess which windows really published.
var ErrManifestCorrupt = errors.New("pipeline: manifest corrupt")

// Manifest is the durable window-lifecycle journal: one record per line
// in the internal/journal line format, `<crc32-hex> <json>\n`, so a torn
// final line (the only damage an fsynced append-only file can suffer) is
// truncated on open and anything else refuses.
type Manifest struct {
	mu   sync.Mutex
	path string
	h    *journal.Appender
	recs []Record
}

// OpenManifest loads (or creates) the manifest at path, verifying every
// line's checksum, the gapless sequence, and the lifecycle state
// machine, truncating a torn final line.
func OpenManifest(path string) (*Manifest, error) {
	m := &Manifest{path: path}
	h, err := journal.Open(path, ErrManifestPoisoned, func(raw []byte) (int64, error) {
		recs, durable, err := ScanManifest(path, raw)
		m.recs = recs
		return durable, err
	})
	if err != nil {
		return nil, err
	}
	m.h = h
	return m, nil
}

// ScanManifest validates raw manifest bytes strictly read-only — the
// exact rules recovery enforces (checksums, gapless sequence, legal
// lifecycle transitions, tolerated torn tail) with no truncation and no
// file handle, so fsck and the background scrubber can audit a live
// daemon's journal without racing its appends. It returns the valid
// records in append order and the durable offset after the last valid
// line; an offset short of len(raw) is the tolerated torn tail. Interior
// damage returns an error wrapping ErrManifestCorrupt naming the line.
// path is used only for error messages.
func ScanManifest(path string, raw []byte) ([]Record, int64, error) {
	var recs []Record
	durable, err := journal.Scan(raw, DecodeLine, func(_ int, rec Record) error {
		if want := len(recs) + 1; rec.Seq != want {
			return fmt.Errorf("sequence %d, want %d (records missing or reordered)", rec.Seq, want)
		}
		if err := validAfter(tip(recs), rec); err != nil {
			return err
		}
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %s %v", ErrManifestCorrupt, path, err)
	}
	return recs, durable, nil
}

// DecodeLine validates one manifest line `<crc32-hex> <json>` and
// decodes its record. Exported so the fuzz target exercises exactly the
// parser recovery trusts.
func DecodeLine(line []byte) (Record, error) {
	var rec Record
	if err := journal.Decode(line, &rec); err != nil {
		return rec, err
	}
	if _, known := stateOrder[rec.State]; !known {
		return rec, fmt.Errorf("unknown lifecycle state %q", rec.State)
	}
	if rec.Seq < 1 || rec.Window < 1 {
		return rec, fmt.Errorf("record carries seq=%d window=%d (both are 1-based)", rec.Seq, rec.Window)
	}
	if rec.Eps < 0 || math.IsNaN(rec.Eps) || math.IsInf(rec.Eps, 0) {
		return rec, fmt.Errorf("record carries invalid ε=%v", rec.Eps)
	}
	if rec.State == StateCut && (rec.T0 < 0 || rec.T1 <= rec.T0) {
		return rec, fmt.Errorf("cut record carries empty span [%d,%d)", rec.T0, rec.T1)
	}
	return rec, nil
}

// tip returns the newest record, nil on an empty journal.
func tip(recs []Record) *Record {
	if len(recs) == 0 {
		return nil
	}
	return &recs[len(recs)-1]
}

// validAfter checks that rec legally follows the journal tip (nil on an
// empty journal). The lifecycle is strictly sequential: the first record
// is window 1's cut; after (w, s) comes (w, next(s)), or (w+1, cut) once
// w has reached the terminal state. Shared by live appends and the
// read-only scan so an audit enforces exactly what recovery would.
func validAfter(tip *Record, rec Record) error {
	if tip == nil {
		if rec.Window != 1 || rec.State != StateCut {
			return fmt.Errorf("first record is (window %d, %s), want (window 1, %s)", rec.Window, rec.State, StateCut)
		}
		return nil
	}
	if tip.State == StateReloaded {
		if rec.Window != tip.Window+1 || rec.State != StateCut {
			return fmt.Errorf("after window %d completed, got (window %d, %s), want (window %d, %s)",
				tip.Window, rec.Window, rec.State, tip.Window+1, StateCut)
		}
		return nil
	}
	if rec.Window != tip.Window || rec.State != tip.State.next() {
		return fmt.Errorf("after (window %d, %s), got (window %d, %s), want (window %d, %s)",
			tip.Window, tip.State, rec.Window, rec.State, tip.Window, tip.State.next())
	}
	return nil
}

// Append durably journals rec (Seq is assigned here), validating the
// lifecycle transition first. Like the ledger, a record only counts
// once its fsync returned success; a failed plain write heals the torn
// tail and stays usable, a failed fsync poisons.
func (m *Manifest) Append(ctx context.Context, rec Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.h.Err(); err != nil {
		return err
	}
	if err := validAfter(tip(m.recs), rec); err != nil {
		return fmt.Errorf("pipeline: manifest refuses %v", err)
	}
	rec.Seq = len(m.recs) + 1
	// Fault window: the stage's side effect is durable, its record is
	// not. A SIGKILL here must make recovery redo the stage (reaching
	// the same bytes) and then append this same record.
	if err := resilience.Fire(ctx, resilience.FaultManifestAppend, &rec); err != nil {
		return fmt.Errorf("pipeline: manifest append: %w", err)
	}
	line, err := journal.Encode(rec)
	if err != nil {
		return fmt.Errorf("pipeline: encoding manifest record: %w", err)
	}
	if err := m.h.Append(ctx, line, "", nil); err != nil {
		return fmt.Errorf("pipeline: appending manifest record: %w", err)
	}
	m.recs = append(m.recs, rec)
	return nil
}

// LastWindow returns the newest window with any journalled progress,
// 0 before the first cut.
func (m *Manifest) LastWindow() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t := tip(m.recs); t != nil {
		return t.Window
	}
	return 0
}

// LastState returns the newest record's state, "" on an empty journal.
func (m *Manifest) LastState() State {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t := tip(m.recs); t != nil {
		return t.State
	}
	return ""
}

// Get returns window w's record for the given state, if journalled.
func (m *Manifest) Get(w int, s State) (Record, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	// Scan backwards: the wanted record is almost always near the tip.
	for i := len(m.recs) - 1; i >= 0; i-- {
		if m.recs[i].Window == w && m.recs[i].State == s {
			return m.recs[i], true
		}
	}
	return Record{}, false
}

// Records returns a copy of the journal in append order.
func (m *Manifest) Records() []Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Record, len(m.recs))
	copy(out, m.recs)
	return out
}

// Len returns the number of committed records.
func (m *Manifest) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.recs)
}

// Close releases the file handle; all committed records are durable.
func (m *Manifest) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.h.Close()
}
