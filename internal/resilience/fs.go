package resilience

import (
	"context"
	"errors"
	"os"
	"syscall"
)

// This file is the filesystem fault seam: every durable write in the
// pipeline (WAL records, ledger lines, snapshots, dead-letter records,
// atomic temp files) funnels its write and fsync calls through Write
// and Sync, so exhaustion drills can inject the failures a full disk or
// a dying device actually produces — ENOSPC on write, EIO on fsync, and
// the short write that tears a record in half — at any single point,
// without the test knowing anything about the caller's file format.

// WriteOp is the payload delivered to write fault hooks. Hooks match on
// Path (usually by suffix) to target one durable file among several.
type WriteOp struct {
	// Path names the file being written.
	Path string
	// Len is the size of the attempted write.
	Len int
	// Short is consulted only by FaultShortWrite hooks: a hook that sets
	// Short to n in [0, Len) and returns an error makes Write persist
	// exactly the first n bytes before failing — a real torn write, with
	// the torn prefix genuinely on disk. Left at -1, a failing hook
	// tears the write in half.
	Short int
}

// IsDiskFull reports whether err is (or wraps) ENOSPC — the one write
// failure that is expected to clear on its own once an operator frees
// space, so callers map it to "retry later" rather than "restart me".
// Fault hooks emulating a full disk should return an error wrapping
// syscall.ENOSPC so production classification paths see the real thing.
func IsDiskFull(err error) bool { return errors.Is(err, syscall.ENOSPC) }

// Write writes p to f through the fault seam. Without an injector in
// the context it is exactly f.Write(p). FaultShortWrite fires first: a
// failing hook persists the directed prefix (see WriteOp.Short) and
// returns its error with the short count. FaultWriteENOSPC fires next:
// a failing hook fails the write before any byte lands. Callers must
// treat any error — short or not — as "the file now ends somewhere
// inside my record" and truncate back to their last durable boundary.
func Write(ctx context.Context, f *os.File, p []byte) (int, error) {
	if in := InjectorFrom(ctx); in != nil {
		op := &WriteOp{Path: f.Name(), Len: len(p), Short: -1}
		if err := in.fire(ctx, FaultShortWrite, op); err != nil {
			n := op.Short
			if n < 0 || n > len(p) {
				n = len(p) / 2
			}
			if n > 0 {
				if wn, werr := f.Write(p[:n]); werr != nil {
					return wn, werr
				}
			}
			return n, err
		}
		if err := in.fire(ctx, FaultWriteENOSPC, op); err != nil {
			return 0, err
		}
	}
	return f.Write(p)
}

// Sync fsyncs f through the fault seam (FaultSyncEIO, payload: the file
// name). A failed fsync means the kernel may have dropped the dirty
// pages without writing them: the caller must not assume any
// unacknowledged data landed, and must either reopen and re-verify the
// file or refuse further writes on this handle — never retry the fsync
// and carry on.
func Sync(ctx context.Context, f *os.File) error {
	if in := InjectorFrom(ctx); in != nil {
		if err := in.fire(ctx, FaultSyncEIO, f.Name()); err != nil {
			return err
		}
	}
	return f.Sync()
}

// SyncDir fsyncs the directory dir through the fault seam
// (FaultSyncEIO, payload: the directory path), making a just-completed
// rename or remove in it durable against power loss. AtomicWriteFile
// fails on its error; Quarantine ignores it, because a power cut that
// undoes its rename leaves the damage where the next scrub finds it.
func SyncDir(ctx context.Context, dir string) error {
	if in := InjectorFrom(ctx); in != nil {
		if err := in.fire(ctx, FaultSyncEIO, dir); err != nil {
			return err
		}
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}
