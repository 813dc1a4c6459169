package journal

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// errCheckpointPoisoned marks a checkpoint whose last fsync failed: no
// further cell is recorded until a reopen re-reads the file.
var errCheckpointPoisoned = errors.New("journal: checkpoint poisoned by a failed fsync")

// checkpointLine is one recorded cell.
type checkpointLine struct {
	Key string          `json:"key"`
	Val json.RawMessage `json:"val"`
}

// Checkpoint is a keyed store of completed sweep cells: the stpt-bench
// -checkpoint file. Each Record appends one line, {"key":…,"val":…},
// and fsyncs it; a later line for a key replaces an earlier one, so
// the files of sweep shards merge by concatenation. A kill mid-append
// leaves a torn tail, which the next open truncates, so the cell it
// held is simply recomputed. A nil *Checkpoint is valid and disables
// checkpointing (Lookup misses, Record no-ops), which keeps call sites
// free of nil checks.
//
// Cells are keyed hierarchically, e.g. "fig6/CER/uniform/identity/rep3",
// at the granularity of one (dataset, algorithm, rep) unit of work.
type Checkpoint struct {
	mu   sync.Mutex
	h    *Appender // nil = memory-only (tests)
	done map[string]json.RawMessage
	// replaced holds, per key, a value that a later line of the loaded
	// file replaced with a different one.
	replaced map[string]json.RawMessage
}

// OpenCheckpoint loads the checkpoint at path, or starts an empty one if
// the file does not exist yet. Interior damage is an error rather than a
// silent restart, so a sweep never quietly recomputes hours of work; the
// refused file is left untouched.
func OpenCheckpoint(path string) (*Checkpoint, error) {
	c := NewMemoryCheckpoint()
	h, err := Open(path, errCheckpointPoisoned, func(raw []byte) (int64, error) {
		// The previous format was one JSON document with no newline,
		// which Scan would take for a torn tail and truncate to nothing.
		// Journal lines start with hex digits, so '{' is unambiguous.
		if len(raw) > 0 && raw[0] == '{' {
			return 0, fmt.Errorf("journal: checkpoint %s is in the old single-document format; finish that sweep with the build that wrote it, or start a fresh -checkpoint file", path)
		}
		durable, err := Scan(raw, func(line []byte) (checkpointLine, error) {
			var rec checkpointLine
			return rec, Decode(line, &rec)
		}, func(_ int, rec checkpointLine) error {
			if old, ok := c.done[rec.Key]; ok && !bytes.Equal(old, rec.Val) {
				c.replaced[rec.Key] = old
			}
			c.done[rec.Key] = rec.Val
			return nil
		})
		if err != nil {
			return 0, fmt.Errorf("journal: corrupt checkpoint %s: %w", path, err)
		}
		return durable, nil
	})
	if err != nil {
		return nil, err
	}
	c.h = h
	return c, nil
}

// NewMemoryCheckpoint returns a checkpoint that never touches disk.
func NewMemoryCheckpoint() *Checkpoint {
	return &Checkpoint{done: make(map[string]json.RawMessage), replaced: make(map[string]json.RawMessage)}
}

// Lookup unmarshals the cell stored under key into out and reports
// whether it was present. out may be nil to test presence only.
func (c *Checkpoint) Lookup(key string, out any) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	raw, ok := c.done[key]
	c.mu.Unlock()
	if !ok {
		return false
	}
	if out == nil {
		return true
	}
	// A cell that no longer unmarshals counts as missing: recomputing is
	// always safe, serving a half-decoded cell is not.
	return json.Unmarshal(raw, out) == nil
}

// Replaced returns a value that a later line of the loaded file
// replaced under key with a different one, as when checkpoints written
// under different options are concatenated. ok is false when every line
// for key agreed. Records made since the open are not noted.
func (c *Checkpoint) Replaced(key string) (earlier json.RawMessage, ok bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	earlier, ok = c.replaced[key]
	return earlier, ok
}

// Record durably appends val under key; the cell counts only once its
// fsync returned. Recording on a nil checkpoint is a no-op.
func (c *Checkpoint) Record(key string, val any) error {
	if c == nil {
		return nil
	}
	raw, err := json.Marshal(val)
	if err != nil {
		return fmt.Errorf("journal: encoding cell %q: %w", key, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.h != nil {
		line, err := Encode(checkpointLine{Key: key, Val: raw})
		if err != nil {
			return fmt.Errorf("journal: encoding cell %q: %w", key, err)
		}
		if err := c.h.Append(context.Background(), line, "", nil); err != nil {
			return fmt.Errorf("journal: recording cell %q: %w", key, err)
		}
	}
	c.done[key] = raw
	return nil
}

// Len returns the number of completed cells.
func (c *Checkpoint) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.done)
}

// Keys returns the completed cell keys, sorted (diagnostics and tests).
func (c *Checkpoint) Keys() []string {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.done))
	for k := range c.done {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Close releases the file handle; every recorded cell is already
// durable. Closing a nil or memory-only checkpoint is a no-op.
func (c *Checkpoint) Close() error {
	if c == nil || c.h == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.h.Close()
}
