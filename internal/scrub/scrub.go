// Package scrub is the at-rest integrity tier: a background scrubber
// that periodically re-verifies every artifact's checksum against what
// the journals and catalogs claim, quarantines what fails, and — where a
// replica or a deterministic rebuild can supply the true bytes — repairs
// it; plus a cross-artifact fsck (stpt-doctor) auditing the global
// invariants no single artifact can witness alone.
//
// Both halves share one inventory. PipelineTargets and StoreTargets list
// each artifact with its one read-only Check (and, for fsck, its repair
// plan); the daemons scrub those lists, and Fsck audits the same list —
// plus one release target per file a peer's catalog advertises — adding
// only the relational checks: ledger spend against the manifest, WAL
// coverage (ingest.CheckWAL, the walk recovery uses), torn tails and
// quarantine residue.
//
// The threat model is silent corruption below the crash model the rest
// of the repo defends against: bit rot, torn sectors, fsync lies, an
// operator's stray write. Every artifact already carries a checksum
// (CRC-32C in the serve catalog, CRC-32 in the journals, the WAL
// snapshot and release manifests); what was missing is anything that *reads* them
// again after the write-time verification. A scrubber pass is that read.
//
// Quarantine follows the artifact's mutability. Immutable artifacts
// (published releases, catalog files) are renamed to <path>.corrupt —
// serving a damaged release is strictly worse than 404ing it, and the
// rename makes the catalog refuse it to followers too. Live artifacts
// (open journals, the WAL snapshot a recovery would load) are
// quarantined by copy: renaming a file out from under an open handle
// hides the damage from the process that must refuse to trust it.
package scrub

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/resilience"
)

// Chunk is the FaultScrubRead payload: one read off disk during a
// verification pass. Hooks may mutate Data to simulate rot the disk
// never actually suffered (the pass must then report the artifact
// corrupt), or return an error to simulate an unreadable sector.
type Chunk struct {
	Path   string
	Offset int64
	Data   []byte
}

// Target is one artifact a pass verifies: its whole-file bytes are
// streamed through the fault point and handed to Check.
type Target struct {
	// Kind labels the artifact class in logs and status ("release",
	// "manifest", "ledger", "snapshot", "window", "latest").
	Kind string
	// Path is the artifact on disk.
	Path string
	// Live marks artifacts held open or replaced by a running process
	// (journals, the WAL snapshot): quarantined by copy, never renamed
	// away.
	Live bool
	// Check validates the full file image. It must be read-only and
	// side-effect free: a pass may run it twice on one artifact.
	Check func(data []byte) error
	// Repair is the plan Fsck reports, and Apply executes, when this
	// target fails; nil when no deterministic source for the true bytes
	// exists. The background scrubber ignores it: a daemon repairs only
	// through Config.Repair.
	Repair *Repair
}

// Config parameterises a Scrubber.
type Config struct {
	// Interval between passes in Run (default 1m).
	Interval time.Duration
	// BytesPerSec throttles disk reads across a pass; 0 is unlimited.
	// The throttle exists so a scrub never competes with serving for
	// disk bandwidth: size it to cover the artifact set within a few
	// intervals (see DESIGN.md §16).
	BytesPerSec int64
	// Targets enumerates the artifact set, called fresh at the start of
	// every pass (and again to confirm a failure — see RunPass).
	Targets func() []Target
	// Repair, when non-nil, is invoked after a corrupt artifact is
	// quarantined; on followers it re-fetches the true bytes from the
	// leader's catalog. A nil Repair (or a failing one) leaves the
	// corruption latched for readiness to surface.
	Repair func(ctx context.Context, t Target) error
}

// Scrubber re-verifies artifacts in a loop. All methods are safe for
// concurrent use; the counters feed /metrics and the latched corrupt
// set feeds /readyz.
type Scrubber struct {
	cfg Config

	mu           sync.Mutex
	passes       uint64
	corruptFound uint64
	repaired     uint64
	quarantined  uint64
	corrupt      map[string]string // path -> reason, latched until a clean verify
}

// New validates cfg and builds a scrubber.
func New(cfg Config) (*Scrubber, error) {
	if cfg.Targets == nil {
		return nil, fmt.Errorf("scrub: Targets is required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Minute
	}
	return &Scrubber{cfg: cfg, corrupt: make(map[string]string)}, nil
}

// Run scrubs every Interval until ctx is cancelled. The first pass runs
// immediately: a daemon that just restarted wants to know *now* whether
// the state it recovered from is clean.
func (s *Scrubber) Run(ctx context.Context) error {
	t := time.NewTicker(s.cfg.Interval)
	defer t.Stop()
	for {
		if err := s.RunPass(ctx); err != nil {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
}

// RunPass verifies every current target once. Only ctx cancellation is
// an error: corruption is not a failure of the pass, it is the pass's
// job, recorded in the counters and the latch.
//
// A Check failure is confirmed against a *freshly enumerated* target
// before it counts: the artifact set mutates underneath a pass (a
// publish atomically replaces latest.csv, a compaction the WAL
// snapshot), and a read raced against an atomic replace can see the old
// inode while the enumeration already promised the new checksum. If the
// path is no longer listed the failure is dropped; if the fresh check
// passes the latch is cleared.
func (s *Scrubber) RunPass(ctx context.Context) error {
	for _, t := range s.cfg.Targets() {
		if err := ctx.Err(); err != nil {
			return err
		}
		verr, raw := s.verify(ctx, t)
		if verr == nil {
			s.clearLatch(t.Path)
			continue
		}
		if err := ctx.Err(); err != nil {
			return err // an aborted read is not corruption
		}
		confirmed, fresh := s.confirm(ctx, t)
		if !confirmed {
			continue
		}
		s.noteCorrupt(fresh.Path, verr)
		s.quarantine(fresh, raw)
		s.repair(ctx, fresh)
	}
	s.mu.Lock()
	s.passes++
	s.mu.Unlock()
	return nil
}

// verify streams t's bytes through the fault point and runs Check,
// returning the verification error (nil = clean) and the bytes as read
// (for quarantine-by-copy). A missing file is a failure here — the
// target set promised the artifact exists — and confirm decides whether
// the absence is real (still enumerated: a missing or quarantined
// artifact that must stay latched) or a legitimate mid-pass deletion
// (no longer enumerated: dropped).
func (s *Scrubber) verify(ctx context.Context, t Target) (error, []byte) {
	f, err := os.Open(t.Path)
	if err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("scrub: %s %s: artifact missing", t.Kind, t.Path), nil
		}
		return fmt.Errorf("scrub: %v", err), nil
	}
	defer f.Close()
	var raw []byte
	buf := make([]byte, 256<<10)
	var off int64
	for {
		n, rerr := f.Read(buf)
		if n > 0 {
			chunk := &Chunk{Path: t.Path, Offset: off, Data: buf[:n]}
			if ferr := resilience.Fire(ctx, resilience.FaultScrubRead, chunk); ferr != nil {
				return fmt.Errorf("scrub: reading %s at offset %d: %w", t.Path, off, ferr), nil
			}
			raw = append(raw, chunk.Data...)
			off += int64(n)
			s.throttle(ctx, int64(n))
		}
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				break
			}
			return fmt.Errorf("scrub: reading %s: %w", t.Path, rerr), nil
		}
	}
	if err := t.Check(raw); err != nil {
		return err, raw
	}
	return nil, raw
}

// confirm re-enumerates the targets and re-verifies the one at the same
// path without fault injection, distinguishing real at-rest damage from
// a read raced against an atomic replace. Reports whether the failure
// stands, and the fresh target (whose Check may carry an updated
// expected checksum).
func (s *Scrubber) confirm(ctx context.Context, t Target) (bool, Target) {
	for _, fresh := range s.cfg.Targets() {
		if fresh.Path != t.Path {
			continue
		}
		raw, err := os.ReadFile(fresh.Path)
		if err != nil {
			// Still enumerated but unreadable (or gone — perhaps already
			// quarantined away): the failure stands. The latch only clears
			// when the artifact verifies clean again or a repair lands.
			return true, fresh
		}
		if fresh.Check(raw) == nil {
			s.clearLatch(t.Path)
			return false, fresh
		}
		return true, fresh
	}
	// No longer part of the artifact set: whatever we read is garbage by
	// definition, not corruption.
	s.clearLatch(t.Path)
	return false, t
}

// quarantine isolates the damaged artifact per its mutability and bumps
// the counter. Errors are logged, not fatal: quarantine is best-effort
// evidence preservation, the latch is the load-bearing signal.
func (s *Scrubber) quarantine(t Target, raw []byte) {
	if _, err := os.Lstat(t.Path); os.IsNotExist(err) {
		return // already gone (likely quarantined on an earlier pass)
	}
	var dst string
	var err error
	if t.Live {
		if raw == nil {
			raw, _ = os.ReadFile(t.Path)
		}
		dst, err = resilience.QuarantineCopy(t.Path, raw)
	} else {
		dst, err = resilience.Quarantine(t.Path)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "scrub: quarantining %s %s failed: %v\n", t.Kind, t.Path, err)
		return
	}
	s.mu.Lock()
	s.quarantined++
	s.mu.Unlock()
	fmt.Fprintf(os.Stderr, "scrub: event=quarantined kind=%s path=%s dest=%s\n", t.Kind, t.Path, dst)
}

// repair invokes the configured repair hook and re-verifies its work;
// only a byte-verified repair clears the latch.
func (s *Scrubber) repair(ctx context.Context, t Target) {
	if s.cfg.Repair == nil {
		return
	}
	if err := s.cfg.Repair(ctx, t); err != nil {
		fmt.Fprintf(os.Stderr, "scrub: event=repair_failed kind=%s path=%s err=%q\n", t.Kind, t.Path, err)
		return
	}
	raw, err := os.ReadFile(t.Path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scrub: event=repair_unverified kind=%s path=%s err=%q\n", t.Kind, t.Path, err)
		return
	}
	if err := t.Check(raw); err != nil {
		fmt.Fprintf(os.Stderr, "scrub: event=repair_bad_bytes kind=%s path=%s err=%q\n", t.Kind, t.Path, err)
		return
	}
	s.mu.Lock()
	s.repaired++
	delete(s.corrupt, t.Path)
	s.mu.Unlock()
	fmt.Fprintf(os.Stderr, "scrub: event=repaired kind=%s path=%s\n", t.Kind, t.Path)
}

// throttle sleeps long enough to keep the pass under BytesPerSec.
func (s *Scrubber) throttle(ctx context.Context, n int64) {
	if s.cfg.BytesPerSec <= 0 {
		return
	}
	d := time.Duration(float64(n) / float64(s.cfg.BytesPerSec) * float64(time.Second))
	if d <= 0 {
		return
	}
	select {
	case <-ctx.Done():
	case <-time.After(d):
	}
}

func (s *Scrubber) noteCorrupt(path string, verr error) {
	s.mu.Lock()
	if _, already := s.corrupt[path]; !already {
		s.corruptFound++
	}
	s.corrupt[path] = verr.Error()
	s.mu.Unlock()
	fmt.Fprintf(os.Stderr, "scrub: event=corrupt path=%s err=%q\n", path, verr)
}

func (s *Scrubber) clearLatch(path string) {
	s.mu.Lock()
	delete(s.corrupt, path)
	s.mu.Unlock()
}

// CorruptArtifacts returns the latched corrupt paths, sorted — the set
// /readyz reports. Empty means the last verification of every artifact
// was clean (or repaired).
func (s *Scrubber) CorruptArtifacts() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.corrupt))
	for p := range s.corrupt {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// ScrubCounts returns the lifetime counters for /metrics.
func (s *Scrubber) ScrubCounts() (passes, corruptFound, repaired, quarantined uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.passes, s.corruptFound, s.repaired, s.quarantined
}
