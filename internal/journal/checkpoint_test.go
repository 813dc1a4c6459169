package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

type cell struct {
	MAE  float64 `json:"mae"`
	RMSE float64 `json:"rmse"`
}

func openCheckpoint(t *testing.T, path string) *Checkpoint {
	t.Helper()
	c, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestCheckpointRoundTripAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	c := openCheckpoint(t, path)
	if c.Lookup("fig6/CER/uniform/stpt/rep0", nil) {
		t.Fatal("fresh checkpoint has cells")
	}
	if err := c.Record("fig6/CER/uniform/stpt/rep0", cell{MAE: 7}); err != nil {
		t.Fatal(err)
	}
	if err := c.Record("fig6/CER/uniform/identity/rep0", cell{MAE: 9}); err != nil {
		t.Fatal(err)
	}
	// A later line for a key replaces the earlier one, as concatenated
	// shard files rely on.
	if err := c.Record("fig6/CER/uniform/stpt/rep0", cell{MAE: 1.5, RMSE: 2.25}); err != nil {
		t.Fatal(err)
	}

	// Simulate a kill + restart: the kernel closes a killed process's
	// file, then the restart reopens it from disk.
	c.Close()
	c2 := openCheckpoint(t, path)
	if c2.Len() != 2 {
		t.Fatalf("Len = %d", c2.Len())
	}
	var got cell
	if !c2.Lookup("fig6/CER/uniform/stpt/rep0", &got) || got.MAE != 1.5 || got.RMSE != 2.25 {
		t.Fatalf("lookup = %+v", got)
	}
	if c2.Lookup("fig6/CER/uniform/fast/rep0", &got) {
		t.Fatal("phantom cell")
	}
}

// TestCheckpointNotesReplacedValues: loading notes a key whose value a
// later line changed, with the value it replaced, so a caller can refuse
// a concatenation of files that disagree; a repeated identical line is
// not a change.
func TestCheckpointNotesReplacedValues(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	c := openCheckpoint(t, path)
	for _, rec := range []struct {
		key string
		val cell
	}{
		{"same", cell{MAE: 1}}, {"changed", cell{MAE: 2}}, {"same", cell{MAE: 1}},
		{"changed", cell{MAE: 3}}, {"changed", cell{MAE: 2}},
	} {
		if err := c.Record(rec.key, rec.val); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c.Replaced("changed"); ok {
		t.Fatal("a record made after the open was noted")
	}

	c.Close()
	c2 := openCheckpoint(t, path)
	if old, ok := c2.Replaced("same"); ok {
		t.Fatalf("identical lines noted as a change from %s", old)
	}
	old, ok := c2.Replaced("changed")
	if !ok || string(old) != `{"mae":3,"rmse":0}` {
		t.Fatalf("Replaced(changed) = %s, %v; want the value the last line replaced", old, ok)
	}
	var cur cell
	if !c2.Lookup("changed", &cur) || cur.MAE != 2 {
		t.Fatalf("later line did not win: %+v", cur)
	}
}

// TestCheckpointTornTailCostsOneCell: a kill mid-append loses only the
// cell being appended, and recording it again restores the file a
// clean run leaves.
func TestCheckpointTornTailCostsOneCell(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	c := openCheckpoint(t, path)
	for i := 0; i < 3; i++ {
		if err := c.Record(fmt.Sprintf("cell/%d", i), cell{MAE: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	whole := readFile(t, path)
	c.Close()
	if err := os.Truncate(path, int64(len(whole)-20)); err != nil {
		t.Fatal(err)
	}

	c2 := openCheckpoint(t, path)
	if got := c2.Keys(); len(got) != 2 || got[0] != "cell/0" || got[1] != "cell/1" {
		t.Fatalf("after a torn tail the checkpoint holds %v, want cell/0 and cell/1", got)
	}
	if err := c2.Record("cell/2", cell{MAE: 2}); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, path); got != whole {
		t.Fatalf("re-recorded file differs from the untorn one\n got: %q\nwant: %q", got, whole)
	}
}

// TestCheckpointRejectsCorruptFile: a file in the previous
// single-document format and a file with interior damage are both
// refused, naming the path, and left byte-identical.
func TestCheckpointRejectsCorruptFile(t *testing.T) {
	first, err := Encode(checkpointLine{Key: "k0", Val: []byte(`{"mae":1}`)})
	if err != nil {
		t.Fatal(err)
	}
	second, err := Encode(checkpointLine{Key: "k1", Val: []byte(`{"mae":2}`)})
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), first...)
	flipped[len(flipped)-3] ^= 0x01
	for name, tc := range map[string]struct{ raw, want string }{
		"old format":          {`{"version":1,"cells":{"fig6/CER/uniform/stpt/rep0":{"mre":12.5}}}`, "old single-document format"},
		"old format, no cell": {`{"version":1,"cells":{}}`, "old single-document format"},
		"old format, torn":    {`{"version":1,"cells":{"fig6/CER/un`, "old single-document format"},
		"interior bit flip":   {string(flipped) + string(second), "line 1"},
		"interior garbage":    {string(first) + "not a journal line\n" + string(second), "line 2"},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "sweep.ckpt")
			if err := os.WriteFile(path, []byte(tc.raw), 0o644); err != nil {
				t.Fatal(err)
			}
			c, err := OpenCheckpoint(path)
			if err == nil {
				c.Close()
				t.Fatalf("opened; the file now holds %q", readFile(t, path))
			}
			if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name %s and %q", err, path, tc.want)
			}
			if got := readFile(t, path); got != tc.raw {
				t.Errorf("refused file was modified: %q", got)
			}
		})
	}
}

func TestNilCheckpointIsInert(t *testing.T) {
	var c *Checkpoint
	if c.Lookup("k", nil) {
		t.Fatal("nil lookup hit")
	}
	if err := c.Record("k", 1); err != nil {
		t.Fatalf("nil record: %v", err)
	}
	if c.Len() != 0 || c.Keys() != nil {
		t.Fatal("nil checkpoint not empty")
	}
	if err := c.Close(); err != nil {
		t.Fatalf("nil close: %v", err)
	}
	if err := NewMemoryCheckpoint().Close(); err != nil {
		t.Fatalf("memory close: %v", err)
	}
}

func TestCheckpointConcurrentRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "conc.ckpt")
	c := openCheckpoint(t, path)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("cell/%d", i)
			if err := c.Record(key, cell{MAE: float64(i)}); err != nil {
				t.Errorf("record %d: %v", i, err)
			}
			var got cell
			if !c.Lookup(key, &got) {
				t.Errorf("lookup %d missed", i)
			}
		}(i)
	}
	wg.Wait()
	c.Close()
	c2 := openCheckpoint(t, path)
	if c2.Len() != 16 {
		t.Fatalf("persisted %d cells", c2.Len())
	}
}
