package resilience

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// AcquireFileLock takes an exclusive advisory lock guarding path (a
// sweep checkpoint) against concurrent writers from other processes:
// two stpt-bench invocations pointed at the same -checkpoint must fail
// fast, because two appenders would each write at their own end offset
// and overwrite each other's lines.
//
// The lock is a sibling file, path+".lock", created with
// O_CREATE|O_EXCL and holding the owner's pid. Acquisition fails while
// the recorded owner is still running; a lock whose owner is dead (a
// SIGKILLed sweep skips every deferred cleanup) is taken over
// automatically. The returned release removes the lock file; releasing
// twice is harmless.
//
// A lock file without a parseable pid is never stolen — it was not
// written by this code path, so the only safe move is to make the
// operator look at it.
func AcquireFileLock(path string) (release func() error, err error) {
	lock := path + ".lock"
	// The takeover path (remove + recreate) can race another taker, so
	// O_EXCL failure right after a stale removal is retried a few times
	// rather than treated as fatal.
	for attempt := 0; attempt < 4; attempt++ {
		f, err := os.OpenFile(lock, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err == nil {
			_, werr := fmt.Fprintf(f, "%d\n", os.Getpid())
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				os.Remove(lock)
				return nil, fmt.Errorf("resilience: writing %s: %w", lock, werr)
			}
			released := false
			return func() error {
				if released {
					return nil
				}
				released = true
				return os.Remove(lock)
			}, nil
		}
		if !os.IsExist(err) {
			return nil, fmt.Errorf("resilience: creating %s: %w", lock, err)
		}
		raw, rerr := os.ReadFile(lock)
		if os.IsNotExist(rerr) {
			continue // holder released between the open and the read
		}
		if rerr != nil {
			return nil, fmt.Errorf("resilience: reading %s: %w", lock, rerr)
		}
		pid, perr := strconv.Atoi(strings.TrimSpace(string(raw)))
		if perr != nil || pid <= 0 {
			return nil, fmt.Errorf("resilience: %s exists but holds %q instead of a pid; remove it manually if its owner is gone", lock, strings.TrimSpace(string(raw)))
		}
		if pid == os.Getpid() {
			return nil, fmt.Errorf("resilience: %s is already locked by this process (pid %d)", path, pid)
		}
		if processAlive(pid) {
			return nil, fmt.Errorf("resilience: %s is locked by running process %d", path, pid)
		}
		// Stale: the recorded owner is dead. Remove and retry the
		// exclusive create; a concurrent taker may beat us to it.
		if err := os.Remove(lock); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("resilience: removing stale %s: %w", lock, err)
		}
	}
	return nil, fmt.Errorf("resilience: could not acquire %s: lost the stale-takeover race repeatedly", lock)
}

// processAlive reports whether a pid names a live process. Signal 0
// probes existence without delivering anything; EPERM means the process
// exists but belongs to someone else.
func processAlive(pid int) bool {
	proc, err := os.FindProcess(pid)
	if err != nil {
		return false
	}
	err = proc.Signal(syscall.Signal(0))
	return err == nil || errors.Is(err, syscall.EPERM)
}
