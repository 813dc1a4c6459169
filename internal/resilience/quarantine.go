package resilience

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
)

// QuarantinePath returns the first unused quarantine name for path:
// <path>.corrupt, then <path>.corrupt.1, .2, … — so repeated quarantines
// of the same artifact never clobber earlier evidence. The probe is
// bounded; if a thousand quarantine files already exist the operator has
// a different problem, and the last name is returned regardless.
func QuarantinePath(path string) string {
	dst := path + ".corrupt"
	for i := 1; i < 1000; i++ {
		if _, err := os.Lstat(dst); os.IsNotExist(err) {
			return dst
		}
		dst = fmt.Sprintf("%s.corrupt.%d", path, i)
	}
	return dst
}

// Quarantine renames a corrupt artifact out of service to the first free
// <path>.corrupt[.N] name and returns where it went. Renaming — rather
// than deleting — preserves the damaged bytes for forensics while
// guaranteeing no reader can mistake them for the real artifact.
func Quarantine(path string) (string, error) {
	dst := QuarantinePath(path)
	if err := os.Rename(path, dst); err != nil {
		return "", fmt.Errorf("resilience: quarantining %s: %w", path, err)
	}
	_ = SyncDir(context.TODO(), filepath.Dir(path))
	return dst, nil
}

// QuarantineCopy preserves a copy of a corrupt artifact's bytes at the
// first free <path>.corrupt[.N] name, leaving the original in place —
// the right shape for live journals a running process still holds open,
// where renaming the file away would detach it from its writer.
func QuarantineCopy(path string, raw []byte) (string, error) {
	dst := QuarantinePath(path)
	if err := os.WriteFile(dst, raw, 0o644); err != nil {
		return "", fmt.Errorf("resilience: preserving %s: %w", path, err)
	}
	return dst, nil
}
