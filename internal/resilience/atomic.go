package resilience

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// AtomicWriteFile writes a file so that a crash at any instant leaves
// either the previous content or the complete new content at path —
// never a torn file. The write callback streams the content into a temp
// file in the same directory; the file is fsynced, closed, and renamed
// over path. Every file written whole (release CSVs, ingest snapshots,
// a compacted ledger) commits this way.
//
// ctx is consulted only for fault injection (FaultAtomicRename fires
// between the fsync and the rename so tests can kill a writer in the
// commit window); pass context.Background() when no injector is in
// play.
// Temp-file writes and the pre-rename fsync go through the filesystem
// fault seam (FaultWriteENOSPC, FaultShortWrite, FaultSyncEIO), so
// exhaustion drills can fail any atomic write mid-stream and assert the
// destination is untouched.
func AtomicWriteFile(ctx context.Context, path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
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
	return nil
}

// seamWriter routes an atomic write's stream through the fault seam so
// the injected failure modes of a real disk apply to temp files too.
type seamWriter struct {
	ctx context.Context
	f   *os.File
}

func (w *seamWriter) Write(p []byte) (int, error) { return Write(w.ctx, w.f, p) }
