package resilience

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
)

// ErrRenameNotDurable marks an AtomicWriteFile error raised after the
// rename: the new content is already visible at path, but the directory
// fsync failed, so a power cut may still bring back the previous file.
// A caller holding an open handle on the replaced file must stop
// writing through it.
var ErrRenameNotDurable = errors.New("resilience: rename not durable")

// AtomicWriteFile writes a file so that a crash at any instant leaves
// either the previous content or the complete new content at path —
// never a torn file. The write callback streams the content into a temp
// file in the same directory; the file is fsynced, closed, and renamed
// over path, and then the directory is fsynced so the rename itself
// survives a power cut. Every file written whole (release CSVs, ingest
// snapshots, a compacted ledger) commits this way, and a nil return
// means the new content is durable at path: callers journal a window
// as published, restart the WAL a snapshot covers, or unlink a window's
// staged cut on the strength of it. An error wrapping
// ErrRenameNotDurable means path already holds the new content; any
// other error leaves path untouched.
//
// perm is the new file's mode before the umask, as for os.OpenFile:
// 0o644 for files other users read (a release a stpt-serve under its own
// account serves, the ingest snapshot beside its 0o644 WAL), 0o600 for
// one only the writer may read (a window's staged cut of raw readings).
//
// ctx is consulted only for fault injection (FaultAtomicRename fires
// between the fsync and the rename so tests can kill a writer in the
// commit window); pass context.Background() when no injector is in
// play.
// Temp-file writes, the pre-rename fsync and the directory fsync go
// through the filesystem fault seam (FaultWriteENOSPC, FaultShortWrite,
// FaultSyncEIO), so exhaustion drills can fail any atomic write and
// assert the caller does not act on it.
func AtomicWriteFile(ctx context.Context, path string, perm os.FileMode, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := createTemp(path, perm)
	if err != nil {
		return fmt.Errorf("resilience: writing %s: %w", path, err)
	}
	werr := write(&seamWriter{ctx: ctx, f: tmp})
	if werr == nil {
		werr = Sync(ctx, tmp)
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resilience: writing %s: %w", path, werr)
	}
	// The commit window: content is durable under the temp name but not
	// yet visible at path. A kill here must leave the old file intact.
	if err := Fire(ctx, FaultAtomicRename, path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resilience: committing %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resilience: committing %s: %w", path, err)
	}
	// The new content is visible at path but, until the directory entry
	// is on disk, a power cut may still bring back the old one.
	if err := SyncDir(ctx, dir); err != nil {
		return fmt.Errorf("resilience: committing %s: %w: %w", path, ErrRenameNotDurable, err)
	}
	return nil
}

// createTemp creates a new file path.tmp-<random> for AtomicWriteFile.
// Unlike os.CreateTemp, which always makes the file 0600, it passes perm
// to the open, so the umask filters it as it does for every other file
// the program creates.
func createTemp(path string, perm os.FileMode) (*os.File, error) {
	for try := 0; ; try++ {
		name := path + ".tmp-" + strconv.FormatUint(uint64(rand.Uint32()), 10)
		f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, perm)
		if errors.Is(err, os.ErrExist) && try < 10000 {
			continue
		}
		return f, err
	}
}

// seamWriter routes an atomic write's stream through the fault seam so
// the injected failure modes of a real disk apply to temp files too.
type seamWriter struct {
	ctx context.Context
	f   *os.File
}

func (w *seamWriter) Write(p []byte) (int, error) { return Write(w.ctx, w.f, p) }
