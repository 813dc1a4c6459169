// Package ingest turns the one-shot "load a CSV, build the matrix"
// pipeline into a durable streaming one: household readings arrive
// continuously (CSV stream or HTTP POST), every accepted batch is
// appended to a checksummed write-ahead log before it touches the
// in-memory consumption matrix, and a crash at any instant replays the
// log back to the identical matrix. Malformed records are quarantined
// to a dead-letter sink instead of aborting the stream. The package only
// accumulates: releases are cut from the matrix, noised, charged and
// published by internal/pipeline.
//
// Under continual release the log would otherwise grow without bound,
// so the WAL supports snapshot-based compaction: the ingester
// periodically seals the active segment, writes a checksummed snapshot
// of the accumulated matrix, and deletes every sealed segment the
// snapshot covers. Recovery is then snapshot + tail replay.
//
// Recovery (OpenWALAfter) and the read-only audit stpt-doctor runs
// (CheckWAL) walk the log the same way: one helper lists the sealed
// segments, splits them at the snapshot high-water and refuses a gap,
// and one record scanner validates every segment, so the audit refuses
// exactly the layouts a restart would.
package ingest

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/journal"
	"repro/internal/resilience"
)

// Reading is one accepted meter record: household cell (X, Y) consumed
// V during interval T. It is the unit the WAL stores and the matrix
// accumulates.
type Reading struct {
	X, Y, T int
	V       float64
}

// WAL on-disk format (per segment):
//
//	[8-byte magic "STPTWAL\x01"]
//	repeated records: [u32 LE payload length][u32 LE CRC32(payload)][payload]
//
// where payload is one encoded batch (see encodeBatch). Each Append is
// a single write followed by fsync, so the only states a crash can
// leave are: a prefix of complete records (clean), or a prefix plus a
// short tail (torn write — dropped and truncated on reopen). A
// full-length record whose checksum fails cannot result from a torn
// append and is reported as corruption, never silently skipped.
//
// The log is a sequence of segments: sealed, immutable files named
// `<path>.<seq>` (eight decimal digits) plus the active file at
// `<path>`. Rotation renames the active file to the next sealed name
// and starts a fresh one; compaction deletes sealed segments once a
// snapshot covers them. Only the active segment may carry a torn tail —
// a sealed segment was fully fsynced before its rename, so any damage
// there is corruption.
var walMagic = [8]byte{'S', 'T', 'P', 'T', 'W', 'A', 'L', 1}

const (
	walHeaderLen  = 8
	recHeaderLen  = 8       // u32 length + u32 crc
	readingLen    = 20      // u32 x + u32 y + u32 t + f64 bits
	maxRecordWire = 1 << 24 // 16 MiB: no legitimate batch comes close
)

// ErrWALCorrupt marks damage that a torn final append cannot explain —
// a bad magic, an absurd length field, a checksum mismatch on a
// complete record, or a missing sealed segment. Callers must stop, not
// skip: silently dropping an interior batch would replay to a different
// matrix than the one the ingester built.
var ErrWALCorrupt = errors.New("ingest: WAL corrupt")

// ErrWALPoisoned marks a WAL whose last fsync (or self-heal after a
// failed write) did not succeed: the kernel may have dropped dirty
// pages, so the on-disk state of the final record is unknowable from
// this handle. Every further append is refused; the process must
// restart and recover from the log, which replays exactly the durable
// prefix.
var ErrWALPoisoned = errors.New("ingest: WAL poisoned by a failed fsync; restart and recover")

// WAL is an append-only, segmented write-ahead log of accepted batches.
// Not safe for concurrent use; the Ingester serialises access.
type WAL struct {
	h       *journal.Appender // the active segment
	path    string            // active segment path; sealed segments are path.<seq>
	records int               // complete batches replayed at open + appended since
	active  int               // records in the active segment
	seq     uint64            // sequence the active segment receives when sealed
	sealed  []uint64
	buf     []byte
}

// segName returns the sealed-segment path for seq.
func segName(path string, seq uint64) string { return fmt.Sprintf("%s.%08d", path, seq) }

// listSegments returns the sealed segment sequence numbers present next
// to path, ascending. Only suffixes of exactly eight digits count, so
// snapshots (`.snap`), dead letters and temp files never match.
func listSegments(path string) ([]uint64, error) {
	matches, err := filepath.Glob(path + ".*")
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, m := range matches {
		suffix := m[len(path)+1:]
		if len(suffix) != 8 {
			continue
		}
		var seq uint64
		ok := true
		for _, c := range suffix {
			if c < '0' || c > '9' {
				ok = false
				break
			}
			seq = seq*10 + uint64(c-'0')
		}
		if ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// walSegments lists the sealed segments next to path and splits them at
// the snapshot high-water base: folded are the segments <= base that a
// snapshot already covers (leftovers of a compaction that crashed
// mid-delete), tail the ones recovery must replay. The tail must run
// contiguously from base+1; a gap means a segment no snapshot covers was
// lost, and the log cannot replay faithfully. Recovery (OpenWALAfter)
// and the read-only audit (CheckWAL) both walk the log through here, so
// they refuse exactly the same layouts.
func walSegments(path string, base uint64) (folded, tail []uint64, err error) {
	seqs, err := listSegments(path)
	if err != nil {
		return nil, nil, fmt.Errorf("ingest: listing WAL segments: %w", err)
	}
	next := base + 1
	for _, seq := range seqs {
		if seq <= base {
			folded = append(folded, seq)
			continue
		}
		if seq != next {
			return nil, nil, fmt.Errorf("%w: sealed segment %d present but %d missing — replay has a gap", ErrWALCorrupt, seq, next)
		}
		tail = append(tail, seq)
		next++
	}
	return folded, tail, nil
}

// OpenWALAfter opens (or creates) the log at path, validates every
// existing record, and hands each decoded batch to replay in append
// order. A short tail on the active segment — the signature of a torn
// final append — is truncated away so the log is ready for new appends;
// any other damage is an ErrWALCorrupt. replay may be nil to skip
// delivery (still validates).
//
// The active file is locked first (journal.OpenLocked): while another
// handle holds the log, the open is refused with journal.ErrLocked
// before any segment is read, deleted or truncated.
//
// Sealed segments with sequence <= base are skipped — those are folded
// into a snapshot the caller has already loaded (base 0 means no
// snapshot). The sealed segments that remain must be contiguous from
// base+1 (see walSegments); a gap is refused before any segment is
// touched. Covered segments still on disk (a crash landed between the
// snapshot commit and the segment deletes) are then deleted, finishing
// the interrupted compaction.
func OpenWALAfter(path string, base uint64, replay func(batch []Reading) error) (_ *WAL, err error) {
	f, err := journal.OpenLocked(path)
	if err != nil {
		return nil, fmt.Errorf("ingest: opening WAL: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	folded, tail, err := walSegments(path, base)
	if err != nil {
		return nil, err
	}
	for _, seq := range folded {
		if err := os.Remove(segName(path, seq)); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("ingest: dropping snapshot-covered segment %d: %w", seq, err)
		}
	}
	w := &WAL{path: path, seq: base + 1}
	for _, seq := range tail {
		if err := w.replaySealed(segName(path, seq), replay); err != nil {
			return nil, err
		}
		w.sealed = append(w.sealed, seq)
		w.seq = seq + 1
	}
	if w.h, err = w.recoverActive(f, replay); err != nil {
		return nil, err
	}
	return w, nil
}

// replaySealed validates and delivers one sealed, immutable segment.
// Sealed segments were fully fsynced before their rename, so unlike the
// active file they tolerate no torn tail: every byte must parse.
func (w *WAL) replaySealed(path string, replay func(batch []Reading) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("ingest: opening sealed segment: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return fmt.Errorf("ingest: sealed segment stat: %w", err)
	}
	_, n, err := scanSegment(f, info.Size(), path, true, replay)
	if err != nil {
		return err
	}
	w.records += n
	return nil
}

// recoverActive scans the active file, delivers complete batches, and
// attaches the append handle after the last complete record, truncating
// a torn tail.
func (w *WAL) recoverActive(f *os.File, replay func(batch []Reading) error) (*journal.Appender, error) {
	info, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("ingest: WAL stat: %w", err)
	}
	size := info.Size()
	if size < walHeaderLen {
		// Empty or a crash during header creation: either way no record
		// was ever durable, but refuse if the bytes present are not a
		// prefix of our magic — that is someone else's file.
		head := make([]byte, size)
		if _, err := f.ReadAt(head, 0); err != nil {
			return nil, fmt.Errorf("ingest: reading WAL header: %w", err)
		}
		if string(head) != string(walMagic[:size]) {
			return nil, fmt.Errorf("%w: %s is not a WAL (bad magic)", ErrWALCorrupt, w.path)
		}
		if _, err := f.WriteAt(walMagic[:], 0); err != nil {
			return nil, fmt.Errorf("ingest: writing WAL header: %w", err)
		}
		if err := f.Sync(); err != nil {
			return nil, fmt.Errorf("ingest: syncing WAL header: %w", err)
		}
		return journal.Attach(f, walHeaderLen, walHeaderLen, ErrWALPoisoned)
	}
	off, n, err := scanRecords(f, size, w.path, replay)
	if err != nil {
		return nil, err
	}
	w.records += n
	w.active = n
	// The torn tail past off was never acknowledged as durable.
	return journal.Attach(f, size, off, ErrWALPoisoned)
}

// scanSegment runs scanRecords over one segment image and applies the
// torn-tail rule: a sealed segment was fully fsynced before its rename,
// so unlike the active file it must parse to its last byte.
func scanSegment(f io.ReaderAt, size int64, path string, sealed bool, replay func(batch []Reading) error) (int64, int, error) {
	off, n, err := scanRecords(f, size, path, replay)
	if err == nil && sealed && off < size {
		err = fmt.Errorf("%w: sealed segment %s has a torn tail at offset %d", ErrWALCorrupt, path, off)
	}
	return off, n, err
}

// scanRecords validates records from the start of one segment image,
// delivering each complete batch, and returns the offset after the last
// complete record plus the record count. An offset short of the size
// means a torn tail; the caller decides whether that is recoverable
// (active segment) or corruption (sealed segment). Taking an io.ReaderAt
// lets the read-only audit (CheckWAL, the scrubber) reuse exactly the
// scanner recovery trusts. Every refusal names path.
func scanRecords(f io.ReaderAt, size int64, path string, replay func(batch []Reading) error) (int64, int, error) {
	if size < walHeaderLen {
		return 0, 0, fmt.Errorf("%w: segment %s shorter than its header", ErrWALCorrupt, path)
	}
	var head [walHeaderLen]byte
	if _, err := f.ReadAt(head[:], 0); err != nil {
		return 0, 0, fmt.Errorf("ingest: reading WAL header: %w", err)
	}
	if head != walMagic {
		return 0, 0, fmt.Errorf("%w: %s is not a WAL (bad magic)", ErrWALCorrupt, path)
	}
	off := int64(walHeaderLen)
	n := 0
	var rec [recHeaderLen]byte
	for off < size {
		if size-off < recHeaderLen {
			break // torn tail: partial record header
		}
		if _, err := f.ReadAt(rec[:], off); err != nil {
			return 0, 0, fmt.Errorf("ingest: reading WAL record at %d: %w", off, err)
		}
		rlen := int64(binary.LittleEndian.Uint32(rec[0:4]))
		sum := binary.LittleEndian.Uint32(rec[4:8])
		if rlen == 0 || rlen > maxRecordWire {
			// A complete length field with a nonsense value cannot come
			// from a torn single-write append.
			return 0, 0, fmt.Errorf("%w: %s: record at offset %d claims %d bytes", ErrWALCorrupt, path, off, rlen)
		}
		if size-off-recHeaderLen < rlen {
			break // torn tail: partial payload
		}
		payload := make([]byte, rlen)
		if _, err := f.ReadAt(payload, off+recHeaderLen); err != nil {
			return 0, 0, fmt.Errorf("ingest: reading WAL record at %d: %w", off, err)
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return 0, 0, fmt.Errorf("%w: %s: checksum mismatch on complete record at offset %d", ErrWALCorrupt, path, off)
		}
		batch, err := DecodeBatch(payload)
		if err != nil {
			return 0, 0, fmt.Errorf("%w: %s: record at offset %d: %v", ErrWALCorrupt, path, off, err)
		}
		if replay != nil {
			if err := replay(batch); err != nil {
				return 0, 0, err
			}
		}
		n++
		off += recHeaderLen + rlen
	}
	return off, n, nil
}

// Records returns how many complete batches the log holds beyond any
// snapshot base — replayed at open plus appended since.
func (w *WAL) Records() int { return w.records }

// ActiveBytes returns the durable size of the active segment — the
// bytes a compaction would fold away.
func (w *WAL) ActiveBytes() int64 { return w.h.End() }

// Broken reports whether the handle is poisoned by a failed fsync.
func (w *WAL) Broken() bool { return w.h.Err() != nil }

// Append encodes batch as one record, writes it in a single call, and
// fsyncs before returning — only then may the caller apply the batch to
// in-memory state.
//
// Failure semantics follow the disk, not hope: a failed or short write
// (ENOSPC mid-record) triggers self-healing — the file is truncated
// back to the last durable record so the poisoned tail can never
// masquerade as interior corruption on restart — and the WAL stays
// usable for a later retry once space returns. A failed fsync is
// different: the kernel may have dropped the dirty pages, so the handle
// is poisoned (ErrWALPoisoned) and every later Append is refused; the
// process must restart and recover from the log.
func (w *WAL) Append(ctx context.Context, batch []Reading) error {
	if len(batch) == 0 {
		return nil
	}
	// Header and payload share one buffer, reused across appends, so the
	// record goes out in a single write.
	rec := encodeBatch(append(w.buf[:0], make([]byte, recHeaderLen)...), batch)
	w.buf = rec
	payload := rec[recHeaderLen:]
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(payload))
	// FaultWALSync fires with the record written but not yet durable: a
	// hook error simulates fsync failure; a stalled hook lets a crash test
	// SIGKILL the process mid-commit.
	if err := w.h.Append(ctx, rec, resilience.FaultWALSync, w.records); err != nil {
		return fmt.Errorf("ingest: appending WAL record: %w", err)
	}
	w.records++
	w.active++
	return nil
}

// Rotate seals the active segment: the file (already durable — every
// acknowledged append fsynced) is renamed to the next sealed-segment
// name and a fresh active file replaces it. Returns the sealed
// segment's sequence, or the newest already-sealed sequence when the
// active file holds no records. A fault hook error at FaultWALRotate is
// returned after the fresh active file is in place, so an injected
// rotation failure leaves the log consistent — exactly what a crashed
// compaction leaves for recovery to finish.
func (w *WAL) Rotate(ctx context.Context) (uint64, error) {
	if err := w.h.Err(); err != nil {
		return 0, err
	}
	if w.active == 0 {
		return w.seq - 1, nil
	}
	sealed := w.seq
	if err := os.Rename(w.path, segName(w.path, sealed)); err != nil {
		return 0, fmt.Errorf("ingest: sealing segment %d: %w", sealed, err)
	}
	// Rename durability is advisory: if the dir entry update is lost to a
	// power cut, recovery sees the pre-rotation layout, which replays to
	// the same matrix.
	_ = resilience.SyncDir(ctx, filepath.Dir(w.path))
	// Crash window: no active file exists at path.
	ferr := resilience.Fire(ctx, resilience.FaultWALRotate, sealed)
	if err := w.h.Reopen(walMagic[:]); err != nil {
		return 0, fmt.Errorf("ingest: starting fresh active segment: %w", err)
	}
	w.sealed = append(w.sealed, sealed)
	w.seq = sealed + 1
	w.active = 0
	if ferr != nil {
		return sealed, fmt.Errorf("ingest: rotating WAL: %w", ferr)
	}
	return sealed, nil
}

// DropThrough deletes sealed segments with sequence <= seq — they are
// covered by a durably committed snapshot. Deletion is idempotent and
// restartable: a crash partway through leaves covered segments that the
// next OpenWALAfter removes.
func (w *WAL) DropThrough(ctx context.Context, seq uint64) error {
	kept := w.sealed[:0]
	var failed error
	for _, s := range w.sealed {
		if s > seq || failed != nil {
			kept = append(kept, s)
			continue
		}
		name := segName(w.path, s)
		if err := resilience.Fire(ctx, resilience.FaultCompactDelete, name); err != nil {
			failed = fmt.Errorf("ingest: dropping compacted segment %d: %w", s, err)
			kept = append(kept, s)
			continue
		}
		if err := os.Remove(name); err != nil && !os.IsNotExist(err) {
			failed = fmt.Errorf("ingest: dropping compacted segment %d: %w", s, err)
			kept = append(kept, s)
		}
	}
	w.sealed = append([]uint64(nil), kept...)
	_ = resilience.SyncDir(ctx, filepath.Dir(w.path))
	return failed
}

// Close releases the file handle. The log is already durable — every
// acknowledged Append fsynced — so Close has nothing to flush.
func (w *WAL) Close() error { return w.h.Close() }

// encodeBatch appends the canonical encoding of batch to dst: u32 count
// then per reading u32 x, u32 y, u32 t, f64 bits, all little-endian.
func encodeBatch(dst []byte, batch []Reading) []byte {
	var tmp [readingLen]byte
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(batch)))
	dst = append(dst, tmp[:4]...)
	for _, r := range batch {
		binary.LittleEndian.PutUint32(tmp[0:4], uint32(r.X))
		binary.LittleEndian.PutUint32(tmp[4:8], uint32(r.Y))
		binary.LittleEndian.PutUint32(tmp[8:12], uint32(r.T))
		binary.LittleEndian.PutUint64(tmp[12:20], math.Float64bits(r.V))
		dst = append(dst, tmp[:]...)
	}
	return dst
}

// DecodeBatch parses one record payload. It must hold against arbitrary
// bytes (it is the FuzzWALDecode target): every accepted payload has an
// exact length for its count, finite values, and re-encodes to the
// identical bytes — the encoding is canonical, so checksummed records
// decode to exactly one batch.
func DecodeBatch(payload []byte) ([]Reading, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("payload %d bytes, want at least 4", len(payload))
	}
	count := binary.LittleEndian.Uint32(payload[:4])
	want := 4 + int64(count)*readingLen
	if int64(len(payload)) != want {
		return nil, fmt.Errorf("payload %d bytes for %d readings, want %d", len(payload), count, want)
	}
	if count == 0 {
		return nil, errors.New("empty batch")
	}
	batch := make([]Reading, count)
	for i := range batch {
		p := payload[4+i*readingLen:]
		v := math.Float64frombits(binary.LittleEndian.Uint64(p[12:20]))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("reading %d: non-finite value", i)
		}
		batch[i] = Reading{
			X: int(binary.LittleEndian.Uint32(p[0:4])),
			Y: int(binary.LittleEndian.Uint32(p[4:8])),
			T: int(binary.LittleEndian.Uint32(p[8:12])),
			V: v,
		}
	}
	return batch, nil
}
