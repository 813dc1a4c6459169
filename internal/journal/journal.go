// Package journal owns the one crash-safe, append-only file discipline
// that the privacy ledger (dp.Ledger), the window manifest
// (pipeline.Manifest), the ingest WAL and the sweep checkpoint
// (Checkpoint) share, so a fix to any rule lands in every journal at
// once.
//
// Line format, used by the ledger, the manifest and the checkpoint: one
// record per line,
//
//	<crc32-hex> <json>\n
//
// where crc32-hex is exactly eight lowercase hex digits of the CRC-32
// (IEEE) of the JSON bytes. The encoding is canonical: a line decodes
// only if re-encoding its body reproduces it byte for byte.
//
// Recovery rules (Scan): appends are fsynced in order, so the only damage
// a crash can leave is a torn tail — a final line with no newline, or a
// complete-looking final line that fails to decode with nothing after
// it. The torn tail is tolerated and truncated on open; damage anywhere
// else is an interior fault and refuses.
//
// Append rules (Appender): a record counts only once its fsync returned
// success. A failed or short write heals — the file is truncated back to
// the last durable offset and the handle stays usable. A failed fsync
// poisons the handle: the kernel may have dropped the dirty pages, so the
// durable state is unknowable until a reopen re-reads the file.
//
// One writer (OpenLocked): every writer gets its file through one call
// that takes an exclusive flock before anything is read, truncated or
// deleted. Two appenders on one file would each write at their own end
// offset and overwrite each other's records; the second is refused
// instead. Read-only auditors read without the lock.
package journal

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"syscall"

	"repro/internal/resilience"
)

// ErrLocked is wrapped by the refusal to open a journal for writing
// while another handle, in this process or any other, holds it.
var ErrLocked = errors.New("another writer holds the journal")

// OpenLocked opens (or creates) the journal file at path for writing and
// takes an exclusive, non-blocking flock on it, so its caller is the
// file's one writer before it reads, truncates or deletes anything. A
// held file is refused with an error wrapping ErrLocked that names path.
// The kernel drops the lock when the holder closes the file, exits or is
// killed, so a crash leaves nothing to clean up. The lock costs one
// syscall per open and none per append.
func OpenLocked(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: opening %s: %w", path, err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		if errors.Is(err, syscall.EWOULDBLOCK) {
			return nil, fmt.Errorf("journal: %s: %w", path, ErrLocked)
		}
		return nil, fmt.Errorf("journal: locking %s: %w", path, err)
	}
	return f, nil
}

// Encode marshals v to JSON and frames it as one checksummed line,
// newline included.
func Encode(v any) ([]byte, error) {
	doc, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return fmt.Appendf(nil, "%08x %s\n", crc32.ChecksumIEEE(doc), doc), nil
}

// Decode verifies one line (without its newline) and unmarshals its JSON
// body into v. A line whose checksum field is not the canonical
// lowercase hex of the body's CRC, or whose body is not the compact JSON
// Encode writes, is refused.
func Decode(line []byte, v any) error {
	sum, doc, ok := bytes.Cut(line, []byte{' '})
	if !ok {
		return errors.New("no checksum separator")
	}
	if string(sum) != fmt.Sprintf("%08x", crc32.ChecksumIEEE(doc)) {
		return fmt.Errorf("checksum field %q does not match the body", sum)
	}
	if err := json.Unmarshal(doc, v); err != nil {
		return fmt.Errorf("checksummed line does not decode: %w", err)
	}
	if canon, err := json.Marshal(json.RawMessage(doc)); err != nil || !bytes.Equal(canon, doc) {
		return errors.New("checksummed body is not compact JSON")
	}
	return nil
}

// Fault is the first interior fault a Scan finds: damage a torn append
// cannot explain.
type Fault struct {
	Line   int   // 1-based line number of the bad line
	Offset int64 // byte offset of the bad line's first byte
	Err    error // why the line was refused
}

func (f *Fault) Error() string {
	return fmt.Sprintf("line %d (byte offset %d): %v", f.Line, f.Offset, f.Err)
}

func (f *Fault) Unwrap() error { return f.Err }

// Scan walks raw journal bytes read-only. Each complete line goes to
// decode (framing and field checks); a line failing decode is the torn
// tail if nothing follows it, an interior fault otherwise. Each decoded
// record then goes to apply, the journal's own rules (sequence,
// lifecycle), whose refusal is always an interior fault. Scan returns the
// durable offset after the last valid line — short of len(raw) when a
// torn tail follows — or a *Fault.
func Scan[T any](raw []byte, decode func(line []byte) (T, error), apply func(line int, rec T) error) (int64, error) {
	off := 0
	for line := 1; off < len(raw); line++ {
		nl := bytes.IndexByte(raw[off:], '\n')
		if nl < 0 {
			break // torn tail: the append was cut mid-line
		}
		rec, err := decode(raw[off : off+nl])
		if err == nil {
			err = apply(line, rec)
		} else if off+nl+1 == len(raw) {
			// The crash landed after the newline but before the body was
			// durable — torn only because nothing follows it.
			break
		}
		if err != nil {
			return 0, &Fault{Line: line, Offset: int64(off), Err: err}
		}
		off += nl + 1
	}
	return int64(off), nil
}

// Appender is a durable append handle on one journal file. It is not
// safe for concurrent use; its owner serialises calls.
type Appender struct {
	f      *os.File
	end    int64 // durable end offset: every byte before it was fsynced
	poison error // the owner's sentinel, wrapped by every error after a failed fsync
	broken bool
}

// Open opens (or creates) the line journal at path through OpenLocked,
// hands its bytes to scan — which returns the durable offset or refuses —
// and attaches an Appender positioned there. poison is the sentinel that
// errors from a poisoned handle wrap.
func Open(path string, poison error, scan func(raw []byte) (int64, error)) (*Appender, error) {
	f, err := OpenLocked(path)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: reading %s: %w", path, err)
	}
	durable, err := scan(raw)
	if err == nil {
		var a *Appender
		if a, err = Attach(f, int64(len(raw)), durable, poison); err == nil {
			return a, nil
		}
	}
	f.Close()
	return nil, err
}

// Attach returns an Appender on f, a file from OpenLocked whose first
// durable bytes survived recovery. The torn tail past durable (size >
// durable) is truncated away, durably, so the next append starts on a
// record boundary.
func Attach(f *os.File, size, durable int64, poison error) (*Appender, error) {
	if durable < size {
		if err := f.Truncate(durable); err != nil {
			return nil, fmt.Errorf("journal: truncating the torn tail of %s: %w", f.Name(), err)
		}
		if err := f.Sync(); err != nil {
			return nil, fmt.Errorf("journal: syncing the truncated %s: %w", f.Name(), err)
		}
	}
	if _, err := f.Seek(durable, io.SeekStart); err != nil {
		return nil, fmt.Errorf("journal: positioning %s: %w", f.Name(), err)
	}
	return &Appender{f: f, end: durable, poison: poison}, nil
}

// Err returns a non-nil error wrapping the poison sentinel once a failed
// fsync has poisoned the handle.
func (a *Appender) Err() error {
	if a.broken {
		return fmt.Errorf("%w (%s)", a.poison, a.f.Name())
	}
	return nil
}

// End returns the durable end offset.
func (a *Appender) End() int64 { return a.end }

// Append writes p in one call and fsyncs it; only a nil return makes p
// durable, so the owner applies the record to memory strictly after.
// fault, when non-empty, fires between the write and the fsync with
// payload — the window where a crash leaves an uncommitted, possibly
// torn record — and its error is treated as a failed fsync.
func (a *Appender) Append(ctx context.Context, p []byte, fault resilience.Fault, payload any) error {
	if err := a.Err(); err != nil {
		return err
	}
	if _, err := resilience.Write(ctx, a.f, p); err != nil {
		// A failed plain write (ENOSPC, typically) may have torn the record
		// onto disk without making anything durable. Truncate back so the
		// file never accumulates a torn interior record; the append simply
		// did not happen.
		if herr := a.heal(); herr != nil {
			a.broken = true
			return fmt.Errorf("%w: write failed (%w) and healing the torn tail failed: %w", a.poison, err, herr)
		}
		return fmt.Errorf("write failed, tail truncated to the last durable record: %w", err)
	}
	if fault != "" {
		if err := resilience.Fire(ctx, fault, payload); err != nil {
			a.broken = true
			return fmt.Errorf("%w: syncing: %w", a.poison, err)
		}
	}
	if err := resilience.Sync(ctx, a.f); err != nil {
		// The kernel may have dropped the dirty page and cleared the error:
		// the record's fate is unknowable through this handle, and it must
		// not be counted.
		a.broken = true
		return fmt.Errorf("%w: syncing: %w", a.poison, err)
	}
	a.end += int64(len(p))
	return nil
}

// heal truncates back to the durable end and restores the append
// position, making the truncation itself durable so a crash cannot
// resurrect torn bytes.
func (a *Appender) heal() error {
	if err := a.f.Truncate(a.end); err != nil {
		return err
	}
	if _, err := a.f.Seek(a.end, io.SeekStart); err != nil {
		return err
	}
	return a.f.Sync()
}

// Reset restarts the file in place with init as its only content (WAL
// compaction): it truncates the file and fsyncs that, then writes init
// and fsyncs again, so a crash leaves the old bytes, no bytes, or a
// prefix of init — never init in front of old bytes. The file keeps its
// inode, and with it the writer's lock. A failure poisons the handle:
// which of those states is durable is unknowable from here.
func (a *Appender) Reset(ctx context.Context, init []byte) error {
	if err := a.Err(); err != nil {
		return err
	}
	err := a.f.Truncate(0)
	if err == nil {
		err = resilience.Sync(ctx, a.f)
	}
	if err == nil {
		_, err = a.f.Seek(0, io.SeekStart)
	}
	if err == nil {
		_, err = resilience.Write(ctx, a.f, init)
	}
	if err == nil {
		err = resilience.Sync(ctx, a.f)
	}
	if err != nil {
		a.broken = true
		return fmt.Errorf("%w: resetting %s: %w", a.poison, a.f.Name(), err)
	}
	a.end = int64(len(init))
	return nil
}

// Poison refuses every later append, as a failed fsync does. The owner
// calls it once the file's bytes may have stopped meaning what its
// appends meant, which only a reopen can sort out: the WAL, once a
// snapshot that folds its records may be on disk.
func (a *Appender) Poison() { a.broken = true }

// Close releases the file and with it the writer's lock; every
// committed record is already durable.
func (a *Appender) Close() error { return a.f.Close() }
