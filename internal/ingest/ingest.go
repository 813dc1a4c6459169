package ingest

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"

	"repro/internal/datasets"
	"repro/internal/grid"
	"repro/internal/resilience"
)

// Config sizes an Ingester. The matrix dimensions are fixed up front —
// that is what bounds memory: the ingester holds one Cx×Cy×Ct matrix
// and one batch buffer no matter how many readings stream through it.
type Config struct {
	// Cx, Cy, Ct are the consumption-matrix dimensions. Readings outside
	// the box are quarantined, not resized into.
	Cx, Cy, Ct int
	// BatchSize is how many accepted readings accumulate before a WAL
	// append + fsync. Larger batches amortise the fsync; smaller ones
	// bound how much acknowledged-but-unflushed input a crash can
	// replay-miss (zero: Ingest flushes its tail, so nothing). Default
	// 256; at most 838,860, the most one WAL record carries.
	BatchSize int
	// DeadLetter receives one JSON line per quarantined record (see
	// DeadLetterRecord). nil discards quarantined records (still counted).
	DeadLetter io.Writer
	// CompactBatches triggers snapshot compaction once this many batches
	// have committed since the last snapshot. 0 disables the trigger
	// (compaction still runs via Compact).
	CompactBatches int
	// CompactBytes triggers snapshot compaction once the WAL exceeds
	// this many bytes. 0 disables the trigger.
	CompactBytes int64
}

// maxMatrixCells mirrors the loader-side guard in datasets: three
// individually plausible dimensions must not multiply into an absurd
// allocation.
const maxMatrixCells = 1 << 28

func (c Config) withDefaults() (Config, error) {
	if c.Cx <= 0 || c.Cy <= 0 || c.Ct <= 0 {
		return c, fmt.Errorf("ingest: matrix dimensions %dx%dx%d must be positive", c.Cx, c.Cy, c.Ct)
	}
	if c.Cx > datasets.MaxGridSide || c.Cy > datasets.MaxGridSide || c.Ct > datasets.MaxGridSide {
		return c, fmt.Errorf("ingest: matrix dimensions %dx%dx%d exceed the supported side %d", c.Cx, c.Cy, c.Ct, datasets.MaxGridSide)
	}
	if int64(c.Cx)*int64(c.Cy)*int64(c.Ct) > maxMatrixCells {
		return c, fmt.Errorf("ingest: matrix dimensions %dx%dx%d exceed %d cells", c.Cx, c.Cy, c.Ct, maxMatrixCells)
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	if c.BatchSize > maxBatch {
		return c, fmt.Errorf("ingest: batch size %d exceeds %d, the most readings one WAL record carries", c.BatchSize, maxBatch)
	}
	if c.CompactBatches < 0 || c.CompactBytes < 0 {
		return c, fmt.Errorf("ingest: negative compaction thresholds %d/%d", c.CompactBatches, c.CompactBytes)
	}
	return c, nil
}

// DeadLetterRecord is the JSONL schema of one quarantined input line.
type DeadLetterRecord struct {
	Line   int    `json:"line"`   // 1-based line number within its stream
	Reason string `json:"reason"` // why the record was refused
	Raw    string `json:"raw"`    // the offending line, verbatim
}

// Stats counts an ingester's lifetime traffic.
type Stats struct {
	Accepted    int64 // readings applied to the matrix (incl. replayed)
	Quarantined int64 // readings diverted to the dead letter
	Batches     int64 // WAL records appended by this process
	Replayed    int64 // readings recovered from snapshot + WAL at open
	// Compactions counts committed snapshots; CompactErrors counts
	// attempts that failed (state stays consistent: the next attempt
	// retries, or a restart recovers a poisoned log). CommitFailures
	// counts batches refused at the WAL (the unacknowledged readings are
	// dropped for the caller to resend).
	Compactions    int64
	CompactErrors  int64
	CommitFailures int64
	// DeadLetterDropped mirrors the dead-letter sink's dropped-oldest
	// counter when the sink is a *DeadLetter; 0 otherwise.
	DeadLetterDropped int64
}

// Health reports whether the ingester can currently make writes
// durable, in the shape a readiness probe wants.
type Health struct {
	// Ready means the last durable write succeeded (or none failed yet).
	Ready bool `json:"ready"`
	// Poisoned means the WAL takes no further append (ErrWALPoisoned): a
	// failed fsync made its disk state unknowable, or a compaction's
	// snapshot may cover it; only a restart (which recovers the snapshot
	// and the durable log) recovers.
	Poisoned bool `json:"poisoned,omitempty"`
	// DiskFull means the last failure was ENOSPC: the ingester self-healed
	// the log and will resume as soon as space returns.
	DiskFull bool   `json:"disk_full,omitempty"`
	Reason   string `json:"reason,omitempty"`
}

// Ingester accumulates validated readings into a consumption matrix,
// write-ahead-logging every batch before applying it, and periodically
// folding the log into a checksummed snapshot so durable state stays
// bounded. Safe for concurrent use (HTTP posts serialise on the
// internal lock).
type Ingester struct {
	mu       sync.Mutex
	cfg      Config
	wal      *WAL
	snapPath string
	m        *grid.Matrix
	pending  []Reading
	stats    Stats
	batch    int   // ordinal of the next batch commit, for fault payloads
	dirty    int   // batches committed since the last durable snapshot
	maxT     int   // newest interval with an accepted reading; -1 before any
	lastErr  error // last durable-write failure; nil once a write succeeds
	// scanBuf is Ingest's line buffer, kept across calls; Ingest holds mu
	// throughout, so one buffer serves every call.
	scanBuf []byte
}

// New opens (or creates) the log at walPath, loads the snapshot at
// walPath+".snap" when present, replays every WAL batch the snapshot
// does not cover — the crash-recovery path — and returns an ingester
// ready to append. Replayed readings are trusted (they were validated
// before logging) but still bounds-checked against the configured
// dimensions: a WAL recorded under different dimensions must fail
// loudly, not scribble out of range.
func New(cfg Config, walPath string) (*Ingester, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	in := &Ingester{cfg: cfg, snapPath: walPath + ".snap", maxT: -1}
	snap, err := LoadSnapshot(in.snapPath)
	if err != nil {
		return nil, err
	}
	var base uint64 // the WAL generation the snapshot folds, 0 without one
	if snap != nil {
		if snap.Cx != cfg.Cx || snap.Cy != cfg.Cy || snap.Ct != cfg.Ct {
			return nil, fmt.Errorf("ingest: snapshot %s is %dx%dx%d, configured matrix is %dx%dx%d — was it written for different dimensions?",
				in.snapPath, snap.Cx, snap.Cy, snap.Ct, cfg.Cx, cfg.Cy, cfg.Ct)
		}
		in.m = snap.Matrix()
		in.stats.Replayed = int64(snap.Accepted)
		in.stats.Accepted = int64(snap.Accepted)
		in.batch = int(snap.Batches)
		base = snap.Upto
		// The snapshot stores cells, not readings, so the high-water mark
		// is re-derived from the newest interval with any consumption.
		// (A folded-away reading of exactly 0 is invisible here; the mark
		// only gates when a window *may* be cut, so an underestimate
		// merely delays the cut — it can never unfreeze published data.)
		for t := cfg.Ct - 1; t >= 0 && in.maxT < 0; t-- {
			for _, v := range in.m.TimeSlice(t) {
				if v != 0 {
					in.maxT = t
					break
				}
			}
		}
	} else {
		in.m = grid.NewMatrix(cfg.Cx, cfg.Cy, cfg.Ct)
	}
	wal, err := OpenWAL(walPath, base, func(batch []Reading) error {
		for _, r := range batch {
			if r.X >= cfg.Cx || r.Y >= cfg.Cy || r.T >= cfg.Ct || r.X < 0 || r.Y < 0 || r.T < 0 {
				return fmt.Errorf("ingest: WAL reading (%d,%d,%d) outside the configured %dx%dx%d matrix — was the WAL written for different dimensions?",
					r.X, r.Y, r.T, cfg.Cx, cfg.Cy, cfg.Ct)
			}
			in.m.AddAt(r.X, r.Y, r.T, r.V)
			if r.T > in.maxT {
				in.maxT = r.T
			}
		}
		in.stats.Replayed += int64(len(batch))
		in.stats.Accepted += int64(len(batch))
		return nil
	})
	if err != nil {
		return nil, err
	}
	in.wal = wal
	in.batch += wal.Records()
	in.dirty = wal.Records()
	return in, nil
}

// Stats returns a snapshot of the traffic counters.
func (in *Ingester) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	st := in.stats
	if dl, ok := in.cfg.DeadLetter.(interface{ Dropped() int64 }); ok {
		st.DeadLetterDropped = dl.Dropped()
	}
	return st
}

// Health reports whether durable writes are currently possible.
func (in *Ingester) Health() Health {
	in.mu.Lock()
	defer in.mu.Unlock()
	h := Health{Ready: true}
	switch {
	case in.wal.Broken():
		h = Health{Poisoned: true, Reason: "WAL poisoned by a failed fsync or compaction; restart to recover the durable log"}
	case in.lastErr != nil && resilience.IsDiskFull(in.lastErr):
		h = Health{DiskFull: true, Reason: in.lastErr.Error()}
	case in.lastErr != nil:
		h = Health{Reason: in.lastErr.Error()}
	}
	return h
}

// Dims returns the configured matrix dimensions.
func (in *Ingester) Dims() (cx, cy, ct int) { return in.cfg.Cx, in.cfg.Cy, in.cfg.Ct }

// Ingest streams one CSV source (`x,y,t,value` lines; an optional
// leading header row is skipped) through validation into the matrix.
// Malformed lines are quarantined to the dead letter and the stream
// continues — one bad meter must not abort an epoch. Any tail batch is
// flushed before return, so a nil error means every accepted reading is
// durable in the WAL. The error return is reserved for real faults:
// stream I/O, WAL append/fsync, context cancellation. On error the
// accepted count tells the caller exactly how many readings (from the
// start of this stream) are durable; everything after that was never
// acknowledged and must be resent.
func (in *Ingester) Ingest(ctx context.Context, r io.Reader) (accepted, quarantined int64, err error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	startAcc, startQuar := in.stats.Accepted, in.stats.Quarantined
	if in.scanBuf == nil {
		in.scanBuf = make([]byte, 64*1024)
	}
	sc := bufio.NewScanner(r)
	// One reading is tens of bytes; a megabyte line is garbage input, but
	// refuse it gracefully rather than truncating it into a fake record.
	sc.Buffer(in.scanBuf, 1<<20)
	lineNo := 0
	for sc.Scan() {
		if err := ctx.Err(); err != nil {
			return in.stats.Accepted - startAcc, in.stats.Quarantined - startQuar, err
		}
		lineNo++
		line := bytes.TrimRight(sc.Bytes(), "\r")
		if lineNo == 1 && string(line) == "x,y,t,value" {
			continue // header row from a piped matrix CSV
		}
		if len(line) == 0 {
			continue
		}
		rec, perr := in.parseReading(line)
		if perr != nil {
			if qerr := in.quarantineLocked(ctx, lineNo, perr.Error(), string(line)); qerr != nil {
				return in.stats.Accepted - startAcc, in.stats.Quarantined - startQuar, qerr
			}
			continue
		}
		in.pending = append(in.pending, rec)
		if len(in.pending) >= in.cfg.BatchSize {
			if cerr := in.commitLocked(ctx); cerr != nil {
				return in.stats.Accepted - startAcc, in.stats.Quarantined - startQuar, cerr
			}
		}
	}
	if serr := sc.Err(); serr != nil {
		return in.stats.Accepted - startAcc, in.stats.Quarantined - startQuar, fmt.Errorf("ingest: reading stream: %w", serr)
	}
	if cerr := in.commitLocked(ctx); cerr != nil {
		return in.stats.Accepted - startAcc, in.stats.Quarantined - startQuar, cerr
	}
	return in.stats.Accepted - startAcc, in.stats.Quarantined - startQuar, nil
}

// parseReading validates one line into a Reading. Every refusal reason
// is specific enough for the dead-letter file to be actionable. It reads
// the scanner's bytes in place: strconv gets each field as a string
// conversion that does not escape, so an accepted line whose fields are
// at most 32 bytes long allocates nothing.
func (in *Ingester) parseReading(line []byte) (Reading, error) {
	var r Reading
	if n := bytes.Count(line, []byte{','}) + 1; n != 4 {
		return r, fmt.Errorf("%d fields, want 4 (x,y,t,value)", n)
	}
	var fields [4][]byte
	for i := range 3 {
		j := bytes.IndexByte(line, ',')
		fields[i], line = line[:j], line[j+1:]
	}
	fields[3] = line
	for i, dst := range []*int{&r.X, &r.Y, &r.T} {
		n, err := strconv.Atoi(string(bytes.TrimSpace(fields[i])))
		if err != nil {
			return r, fmt.Errorf("%s=%q is not an integer", []string{"x", "y", "t"}[i], fields[i])
		}
		*dst = n
	}
	if r.X < 0 || r.X >= in.cfg.Cx || r.Y < 0 || r.Y >= in.cfg.Cy {
		return r, fmt.Errorf("location (%d,%d) outside the %dx%d grid", r.X, r.Y, in.cfg.Cx, in.cfg.Cy)
	}
	if r.T < 0 || r.T >= in.cfg.Ct {
		return r, fmt.Errorf("interval t=%d outside [0,%d)", r.T, in.cfg.Ct)
	}
	v, err := strconv.ParseFloat(string(bytes.TrimSpace(fields[3])), 64)
	if err != nil {
		return r, fmt.Errorf("value %q is not a number", fields[3])
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return r, fmt.Errorf("non-finite value %q", fields[3])
	}
	if v < 0 {
		return r, fmt.Errorf("negative consumption %g", v)
	}
	r.V = v
	return r, nil
}

// quarantineLocked writes one dead-letter record. A failing dead-letter
// sink is a real error: silently discarding evidence of malformed input
// would defeat the quarantine's point.
func (in *Ingester) quarantineLocked(ctx context.Context, line int, reason, raw string) error {
	in.stats.Quarantined++
	if in.cfg.DeadLetter == nil {
		return nil
	}
	doc, err := json.Marshal(DeadLetterRecord{Line: line, Reason: reason, Raw: raw})
	if err != nil {
		return fmt.Errorf("ingest: encoding dead-letter record: %w", err)
	}
	doc = append(doc, '\n')
	if cw, ok := in.cfg.DeadLetter.(interface {
		WriteContext(ctx context.Context, p []byte) (int, error)
	}); ok {
		if _, err := cw.WriteContext(ctx, doc); err != nil {
			return fmt.Errorf("ingest: writing dead letter: %w", err)
		}
		return nil
	}
	if _, err := in.cfg.DeadLetter.Write(doc); err != nil {
		return fmt.Errorf("ingest: writing dead letter: %w", err)
	}
	return nil
}

// commitLocked appends the pending batch to the WAL (write + fsync) and
// only then applies it to the matrix — the ordering that makes replay
// exact: the matrix never holds a reading the log does not. On a failed
// append the pending batch is dropped: it was never acknowledged, and
// retaining it would double-apply those readings when the caller
// resends the unacknowledged tail of its stream.
func (in *Ingester) commitLocked(ctx context.Context) error {
	if len(in.pending) == 0 {
		return nil
	}
	// Crash-test injection point: a stalled hook lets the harness
	// SIGKILL the process with a batch accepted but not yet logged.
	if err := resilience.Fire(ctx, resilience.FaultIngestBatch, in.batch); err != nil {
		in.pending = in.pending[:0]
		in.stats.CommitFailures++
		in.lastErr = err
		return fmt.Errorf("ingest: batch %d: %w", in.batch, err)
	}
	if err := in.wal.Append(ctx, in.pending); err != nil {
		in.pending = in.pending[:0]
		in.stats.CommitFailures++
		in.lastErr = err
		return err
	}
	for _, r := range in.pending {
		in.m.AddAt(r.X, r.Y, r.T, r.V)
		if r.T > in.maxT {
			in.maxT = r.T
		}
	}
	in.batch++
	in.dirty++
	in.stats.Batches++
	// Accepted counts only durable readings: a batch that failed its WAL
	// append is dropped and uncounted, so stats never claim more than a
	// crash would replay.
	in.stats.Accepted += int64(len(in.pending))
	in.pending = in.pending[:0]
	in.lastErr = nil
	in.maybeCompactLocked(ctx)
	return nil
}

// maybeCompactLocked runs compaction when a configured threshold is
// exceeded. Failure is recorded, not returned: the triggering batch is
// already durable, so a failed compaction must not fail the ingest —
// the log just stays longer until the next attempt succeeds, or, when
// the failure poisoned the log, the next batch is refused.
func (in *Ingester) maybeCompactLocked(ctx context.Context) {
	trigger := (in.cfg.CompactBatches > 0 && in.dirty >= in.cfg.CompactBatches) ||
		(in.cfg.CompactBytes > 0 && in.wal.Size() > in.cfg.CompactBytes)
	if !trigger {
		return
	}
	if err := in.compactLocked(ctx); err != nil {
		in.stats.CompactErrors++
		in.lastErr = err
	}
}

// Compact folds the whole committed log into a checksummed snapshot
// and restarts the log empty. Safe to call at any time; a no-op when
// nothing committed since the last snapshot. A SIGKILL at any instant —
// mid-snapshot, mid-reset — recovers to the byte-identical matrix: the
// snapshot commit is atomic, and recovery either replays the log
// (snapshot missing) or restarts it (snapshot covers it). A reset that
// fails after the snapshot commit poisons the log (see WAL.Fold): the
// next restart recovers every acknowledged reading.
func (in *Ingester) Compact(ctx context.Context) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	err := in.compactLocked(ctx)
	if err != nil {
		in.stats.CompactErrors++
		in.lastErr = err
	}
	return err
}

func (in *Ingester) compactLocked(ctx context.Context) error {
	if in.dirty == 0 {
		return nil
	}
	// The matrix is exactly the fold of the previous snapshot and every
	// batch of the log's generation.
	return in.wal.Fold(ctx, func(gen uint64) error {
		err := WriteSnapshot(ctx, in.snapPath, &Snapshot{
			Cx: in.cfg.Cx, Cy: in.cfg.Cy, Ct: in.cfg.Ct,
			Upto:     gen,
			Batches:  uint64(in.batch),
			Accepted: uint64(in.stats.Accepted),
			Cells:    in.m.Data(),
		})
		if err == nil {
			in.dirty = 0
			in.stats.Compactions++
		}
		return err
	})
}

// Flush commits any buffered tail batch.
func (in *Ingester) Flush(ctx context.Context) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.commitLocked(ctx)
}

// HighWater returns the exclusive upper bound of time intervals that
// hold durably accepted data: 1 + the newest interval any committed
// reading landed in (0 before the first commit). The continual-release
// pipeline uses it to decide when a window may be cut: window [t0, t1)
// is cut once HighWater ≥ t1, i.e. once the feed has delivered a
// reading at or past the window's end. Readings for an already-cut
// window that arrive later still accumulate in the matrix but are not
// part of that window's frozen cut — event-time lateness is bounded by
// the cut policy, not hidden by it.
func (in *Ingester) HighWater() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.maxT + 1
}

// CutWindow returns a frozen copy of the consumption matrix restricted
// to intervals [t0, t1) — the unit the continual-release pipeline
// sanitises and publishes. Only durably committed readings are
// included (the pending tail is not), so a crash immediately after the
// cut replays to a matrix that contains everything the cut saw.
func (in *Ingester) CutWindow(t0, t1 int) (*grid.Matrix, error) {
	if t0 < 0 || t1 <= t0 || t1 > in.cfg.Ct {
		return nil, fmt.Errorf("ingest: window [%d,%d) outside the configured %d intervals", t0, t1, in.cfg.Ct)
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := grid.NewMatrix(in.cfg.Cx, in.cfg.Cy, t1-t0)
	plane := in.cfg.Cx * in.cfg.Cy
	copy(out.Data(), in.m.Data()[t0*plane:t1*plane])
	return out, nil
}

// Snapshot returns a copy of the current consumption matrix.
func (in *Ingester) Snapshot() *grid.Matrix {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.m.Clone()
}

// Close flushes nothing (acknowledged input is already durable) and
// releases the WAL handle.
func (in *Ingester) Close() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.wal.Close()
}
