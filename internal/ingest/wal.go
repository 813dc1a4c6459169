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
// so the WAL supports snapshot-based compaction: the ingester writes a
// checksummed snapshot of the accumulated matrix that folds the log's
// generation, then restarts the same file in place under the next
// generation. Recovery is then snapshot + replay of the one generation
// past it.
//
// Recovery (OpenWAL) and the read-only audit stpt-doctor runs
// (CheckWAL) walk the log the same way (walkLog): a log one generation
// past the snapshot replays, a log at or below it is already folded in
// and restarts, and anything else is refused, so the audit refuses
// exactly the logs a restart would.
package ingest

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"path/filepath"

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

// WAL on-disk format: one file,
//
//	[8-byte magic "STPTWAL\x02"][u64 LE generation]
//	repeated records: [u32 LE payload length][u32 LE CRC32(payload)][payload]
//
// where payload is one encoded batch (see encodeBatch). Each Append is
// a single write followed by fsync, so the only states a crash can
// leave are: a prefix of complete records (clean), or a prefix plus a
// short tail (torn write — dropped and truncated on reopen). A
// full-length record whose checksum fails cannot result from a torn
// append and is reported as corruption, never silently skipped.
//
// The generation ties the log to the snapshot beside it: compaction
// writes the snapshot with Upto set to the log's generation g, then
// truncates the file in place and writes the header of g+1. So at open
// a log of generation Upto+1 holds exactly the batches the snapshot
// lacks; a log at or below Upto is already folded in (the compaction
// stopped before its reset) and restarts empty; and a header cut short
// held no record. Generations start at 1, so a log past generation 1
// with no snapshot, or more than one past its snapshot, lost the
// snapshot of the generations between and is corrupt.
var walMagic = [8]byte{'S', 'T', 'P', 'T', 'W', 'A', 'L', 2}

// oldWALMagic heads the segmented log earlier builds wrote.
var oldWALMagic = [8]byte{'S', 'T', 'P', 'T', 'W', 'A', 'L', 1}

const (
	walHeaderLen  = 16      // magic + u64 generation
	recHeaderLen  = 8       // u32 length + u32 crc
	readingLen    = 20      // u32 x + u32 y + u32 t + f64 bits
	maxRecordWire = 1 << 24 // 16 MiB: the largest record recovery accepts
	// maxBatch is the most readings one record can carry within
	// maxRecordWire (its payload is a u32 count plus the readings).
	maxBatch = (maxRecordWire - 4) / readingLen
)

// earlierBuild is how to move a log an earlier build wrote to this one.
const earlierBuild = "written by an earlier build: compact it with that build, then remove the 8-byte header-only log that leaves"

// ErrWALCorrupt marks damage that a torn final append cannot explain —
// a bad magic, an absurd length field, a checksum mismatch on a
// complete record, or a generation the snapshot does not account for.
// Callers must stop, not skip: silently dropping an interior batch
// would replay to a different matrix than the one the ingester built.
var ErrWALCorrupt = errors.New("ingest: WAL corrupt")

// ErrWALPoisoned marks a WAL that must take no further append: its last
// fsync (or self-heal after a failed write) did not succeed, so the
// on-disk state of the final record is unknowable from this handle; or
// a snapshot that folds its generation may be on disk while the log was
// not restarted, so recovery would skip a later append. Every further
// append is refused; the process must restart and recover from the
// snapshot and the log, which keep every acknowledged batch.
var ErrWALPoisoned = errors.New("ingest: WAL poisoned; restart and recover")

// WAL is the append-only write-ahead log of accepted batches. Not safe
// for concurrent use; the Ingester serialises access.
type WAL struct {
	h       *journal.Appender
	gen     uint64 // the generation appends land in
	records int    // complete batches replayed at open + appended since
	buf     []byte
}

// header returns the file header of generation gen.
func header(gen uint64) []byte {
	h := make([]byte, walHeaderLen)
	copy(h, walMagic[:])
	binary.LittleEndian.PutUint64(h[len(walMagic):], gen)
	return h
}

// OpenWAL opens (or creates) the log at path beside a snapshot that
// folds every generation up to base (0: no snapshot), validates it, and
// hands each decoded batch of a log one generation past base to replay
// in append order. A short tail — the signature of a torn final append
// — is truncated away so the log is ready for new appends. A log at or
// below base, or one whose header a crash cut short, holds nothing the
// snapshot lacks: it restarts in place as an empty log of generation
// base+1. Any other generation or damage is an ErrWALCorrupt. replay
// may be nil to skip delivery (still validates).
//
// The file is locked first (journal.OpenLocked): while another handle
// holds the log, the open is refused with journal.ErrLocked before any
// byte is read or truncated. A log an earlier build wrote — a
// STPTWAL\x01 file, or a sealed <path>.NNNNNNNN segment beside it — is
// refused, naming the file, before anything is created or changed.
func OpenWAL(path string, base uint64, replay func(batch []Reading) error) (_ *WAL, err error) {
	if err := refuseSegments(path); err != nil {
		return nil, err
	}
	f, err := journal.OpenLocked(path)
	if err != nil {
		return nil, fmt.Errorf("ingest: opening WAL: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	info, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("ingest: WAL stat: %w", err)
	}
	size := info.Size()
	gen, end, n, err := walkLog(f, size, path, base, replay)
	if err != nil {
		return nil, err
	}
	w := &WAL{gen: base + 1, records: n}
	if gen == w.gen {
		// The torn tail past end was never acknowledged as durable.
		w.h, err = journal.Attach(f, size, end, ErrWALPoisoned)
	} else if w.h, err = journal.Attach(f, size, size, ErrWALPoisoned); err == nil {
		// A covered log, or a header cut short, restarts empty.
		err = w.h.Reset(context.Background(), header(w.gen))
	}
	if err != nil {
		return nil, err
	}
	return w, nil
}

// refuseSegments refuses a sealed segment an earlier build left beside
// path: its batches are in no snapshot or log this build reads.
func refuseSegments(path string) error {
	segs, err := filepath.Glob(path + ".[0-9][0-9][0-9][0-9][0-9][0-9][0-9][0-9]")
	if err != nil {
		return fmt.Errorf("ingest: looking for WAL segments: %w", err)
	}
	if len(segs) > 0 {
		return fmt.Errorf("ingest: %s is a WAL segment %s", segs[0], earlierBuild)
	}
	return nil
}

// walkLog validates the log image f of size bytes beside a snapshot
// that folds every generation up to base; recovery (OpenWAL) and the
// audit (CheckWAL) share it. It returns the log's generation, 0 when a
// crash cut the header short. Only a log of generation base+1 is read
// past its header: each complete batch goes to replay (when non-nil),
// end is the offset after the last complete record — short of size when
// a torn tail follows — and n counts the records. Every refusal names
// path.
func walkLog(f io.ReaderAt, size int64, path string, base uint64, replay func(batch []Reading) error) (gen uint64, end int64, n int, err error) {
	head := make([]byte, min(size, walHeaderLen))
	if got, err := f.ReadAt(head, 0); got < len(head) {
		return 0, 0, 0, fmt.Errorf("ingest: reading WAL header: %w", err)
	}
	magic := head[:min(len(head), len(walMagic))]
	switch {
	case bytes.Equal(magic, oldWALMagic[:]):
		return 0, 0, 0, fmt.Errorf("ingest: %s is a WAL %s", path, earlierBuild)
	case !bytes.Equal(magic, walMagic[:len(magic)]):
		return 0, 0, 0, fmt.Errorf("%w: %s is not a WAL (bad magic)", ErrWALCorrupt, path)
	case len(head) < walHeaderLen:
		return 0, 0, 0, nil // no record was ever durable
	}
	switch gen = binary.LittleEndian.Uint64(head[len(walMagic):]); {
	case gen != 0 && gen <= base:
		return gen, 0, 0, nil
	case gen != base+1:
		return 0, 0, 0, fmt.Errorf("%w: %s is at generation %d, but its snapshot folds generations up to %d (0: no snapshot), so only %d can follow",
			ErrWALCorrupt, path, gen, base, base+1)
	}
	end, n, err = scanRecords(f, size, path, replay)
	return gen, end, n, err
}

// scanRecords validates the records after the header of one log image,
// delivering each complete batch, and returns the offset after the last
// complete record plus the record count. An offset short of the size
// means a torn tail. Every refusal names path.
func scanRecords(f io.ReaderAt, size int64, path string, replay func(batch []Reading) error) (int64, int, error) {
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

// Records returns how many complete batches were replayed at open plus
// appended since.
func (w *WAL) Records() int { return w.records }

// Size returns the durable size of the log — what a compaction would
// fold away.
func (w *WAL) Size() int64 { return w.h.End() }

// Broken reports whether the log is poisoned.
func (w *WAL) Broken() bool { return w.h.Err() != nil }

// Append encodes batch as one record, writes it in a single call, and
// fsyncs before returning — only then may the caller apply the batch to
// in-memory state. A batch larger than one record can carry is refused
// before anything is written: recovery would refuse its record.
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
	if len(batch) > maxBatch {
		return fmt.Errorf("ingest: a batch of %d readings exceeds the %d one WAL record holds", len(batch), maxBatch)
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
	return nil
}

// Fold compacts the log. commit must durably write a snapshot that
// folds every batch of generation gen, the log's own (Snapshot.Upto =
// gen); the file is then truncated in place — keeping its inode and its
// lock — and restarted under generation gen+1.
//
// Between the two steps the log is covered: recovery restarts it
// instead of replaying it. So once the snapshot may be on disk —
// commit returned nil, or an error wrapping
// resilience.ErrRenameNotDurable — a log that was not restarted is
// poisoned, because an append to it would be acknowledged and then
// skipped at the next open. Any other commit error leaves the log as
// it was.
func (w *WAL) Fold(ctx context.Context, commit func(gen uint64) error) error {
	if err := w.h.Err(); err != nil {
		return err
	}
	if err := commit(w.gen); err != nil {
		if !errors.Is(err, resilience.ErrRenameNotDurable) {
			return err
		}
		w.h.Poison()
		return fmt.Errorf("%w: the snapshot of generation %d may be on disk: %w", ErrWALPoisoned, w.gen, err)
	}
	// A kill here leaves a covered log for the next open to restart.
	if err := resilience.Fire(ctx, resilience.FaultWALReset, w.gen); err != nil {
		w.h.Poison()
		return fmt.Errorf("%w: restarting the log after generation %d: %w", ErrWALPoisoned, w.gen, err)
	}
	if err := w.h.Reset(ctx, header(w.gen+1)); err != nil {
		return fmt.Errorf("ingest: restarting the log after generation %d: %w", w.gen, err)
	}
	w.gen++
	return nil
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
