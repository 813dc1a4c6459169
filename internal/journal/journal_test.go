package journal

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/resilience"
)

var errPoisoned = errors.New("test journal poisoned")

// Real lines as dp.Ledger and pipeline.Manifest write them.
var (
	ledgerEntry      = `637fcc53 {"seq":1,"dataset":"stream","alg":"tree","eps_pattern":0,"eps_sanitize":0.5,"note":"tree level 0 opened"}`
	ledgerCheckpoint = line(`{"checkpoint":{"seq":3,"spent":{"meters":3.5,"stream":1.5}}}`)
	manifestCut      = `37f8fc75 {"seq":1,"window":1,"state":"cut","t1":3,"seed":1000004}`
	manifestCharged  = `bd40bac1 {"seq":3,"window":1,"state":"charged","eps":0.5,"levels":[0]}`
)

// line frames doc, valid JSON or not, with its checksum.
func line(doc string) string {
	return fmt.Sprintf("%08x %s", crc32.ChecksumIEEE([]byte(doc)), doc)
}

// decodeRaw is the decode callback of a journal with no record rules.
func decodeRaw(l []byte) (json.RawMessage, error) {
	var v json.RawMessage
	return v, Decode(l, &v)
}

func TestEncodeMatchesRealLines(t *testing.T) {
	for _, want := range []string{ledgerEntry, manifestCut, manifestCharged} {
		v, err := decodeRaw([]byte(want))
		if err != nil {
			t.Fatalf("real line refused: %v\n%s", err, want)
		}
		got, err := Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want+"\n" {
			t.Fatalf("re-encoded %q, want %q", got, want+"\n")
		}
	}
}

func TestDecodeRefusesNonCanonicalLines(t *testing.T) {
	doc := `{"seq":1,"window":1,"state":"cut","t1":3,"seed":1000004}`
	for name, l := range map[string]string{
		"no separator":   "37f8fc75",
		"bad checksum":   "00000000 " + doc,
		"uppercase hex":  "37F8FC75 " + doc,
		"short hex":      shortHexLine(),
		"not json":       line(`{"seq":`),
		"spaced json":    line(`{"seq": 1}`),
		"trailing space": line(`{"seq":1} `),
		"empty":          "",
	} {
		var v json.RawMessage
		if err := Decode([]byte(l), &v); err == nil {
			t.Errorf("%s accepted: %q", name, l)
		}
	}
}

// shortHexLine returns a line whose checksum field drops the leading
// zero of its CRC — a value strconv.ParseUint would accept.
func shortHexLine() string {
	for i := 0; ; i++ {
		doc := fmt.Sprintf(`{"seq":%d}`, i)
		if sum := crc32.ChecksumIEEE([]byte(doc)); sum < 1<<28 {
			return fmt.Sprintf("%x %s", sum, doc)
		}
	}
}

func TestScan(t *testing.T) {
	a, b := ledgerCheckpoint+"\n", ledgerEntry+"\n"
	for _, tc := range []struct {
		name      string
		raw       string
		durable   int // the durable offset, or the fault's byte offset
		faultLine int // 0: no fault
	}{
		{"empty", "", 0, 0},
		{"clean", a + b, len(a + b), 0},
		{"torn tail without newline", a + b[:20], len(a), 0},
		{"torn tail that fails to decode", a + "deadbeef {}\n", len(a), 0},
		{"interior checksum fault", a + "deadbeef {}\n" + b, len(a), 2},
		{"interior garbage", "x\n" + a, 0, 1},
		{"blank interior line", a + "\n" + b, len(a), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			durable, err := Scan([]byte(tc.raw), decodeRaw, func(int, json.RawMessage) error { return nil })
			if tc.faultLine > 0 {
				var f *Fault
				if !errors.As(err, &f) || f.Line != tc.faultLine || f.Offset != int64(tc.durable) {
					t.Fatalf("err = %v, want a fault at line %d, byte offset %d", err, tc.faultLine, tc.durable)
				}
				return
			}
			if err != nil || durable != int64(tc.durable) {
				t.Fatalf("Scan = %d, %v; want %d, nil", durable, err, tc.durable)
			}
		})
	}

	// A rule refusal is an interior fault even on the last line, carrying
	// the rule's error and the line's byte offset.
	rule := errors.New("sequence gap")
	_, err := Scan([]byte(a+b), decodeRaw, func(l int, _ json.RawMessage) error {
		if l == 2 {
			return rule
		}
		return nil
	})
	var f *Fault
	if !errors.As(err, &f) || f.Line != 2 || f.Offset != int64(len(a)) || !errors.Is(err, rule) {
		t.Fatalf("rule refusal: %v", err)
	}
}

// openTest opens a raw journal at a fresh path holding init.
func openTest(t *testing.T, init string) (*Appender, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal")
	if init != "" {
		if err := os.WriteFile(path, []byte(init), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	a, err := Open(path, errPoisoned, func(raw []byte) (int64, error) {
		return Scan(raw, decodeRaw, func(int, json.RawMessage) error { return nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return a, path
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func TestOpenTruncatesTornTail(t *testing.T) {
	a, path := openTest(t, manifestCut+"\n"+manifestCharged[:30])
	if got := readFile(t, path); got != manifestCut+"\n" {
		t.Fatalf("after open the file holds %q", got)
	}
	if a.End() != int64(len(manifestCut)+1) {
		t.Fatalf("End = %d", a.End())
	}
	if err := a.Append(context.Background(), []byte(manifestCharged+"\n"), "", nil); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, path); got != manifestCut+"\n"+manifestCharged+"\n" {
		t.Fatalf("append after the truncated tail left %q", got)
	}
}

// TestAppendHealsFailedWrite: a failed or short write leaves the file at
// its durable end and the handle usable.
func TestAppendHealsFailedWrite(t *testing.T) {
	for _, fault := range []resilience.Fault{resilience.FaultWriteENOSPC, resilience.FaultShortWrite} {
		t.Run(string(fault), func(t *testing.T) {
			a, path := openTest(t, manifestCut+"\n")
			inj := resilience.NewInjector().On(fault, func(context.Context, any) error {
				return fmt.Errorf("injected: %w", syscall.ENOSPC)
			})
			err := a.Append(resilience.WithInjector(context.Background(), inj), []byte(manifestCharged+"\n"), "", nil)
			if !resilience.IsDiskFull(err) || errors.Is(err, errPoisoned) || a.Err() != nil {
				t.Fatalf("failed write: %v (handle err %v), want healed disk-full", err, a.Err())
			}
			if got := readFile(t, path); got != manifestCut+"\n" {
				t.Fatalf("healed file holds %q", got)
			}
			if err := a.Append(context.Background(), []byte(manifestCharged+"\n"), "", nil); err != nil {
				t.Fatal(err)
			}
			if got := readFile(t, path); got != manifestCut+"\n"+manifestCharged+"\n" || a.End() != int64(len(got)) {
				t.Fatalf("after retry the file holds %q, End = %d", got, a.End())
			}
		})
	}
}

// TestAppendPoisons: a failed fsync, or a failing fault hook between the
// write and the fsync, poisons the handle for good.
func TestAppendPoisons(t *testing.T) {
	boom := errors.New("simulated EIO")
	for _, fault := range []resilience.Fault{resilience.FaultSyncEIO, resilience.FaultLedgerAppend} {
		t.Run(string(fault), func(t *testing.T) {
			a, _ := openTest(t, "")
			var got any
			inj := resilience.NewInjector().On(fault, func(_ context.Context, payload any) error {
				got = payload
				return boom
			})
			ctx := resilience.WithInjector(context.Background(), inj)
			err := a.Append(ctx, []byte(manifestCut+"\n"), resilience.FaultLedgerAppend, 7)
			if !errors.Is(err, errPoisoned) || !errors.Is(err, boom) {
				t.Fatalf("failed commit: %v", err)
			}
			if fault == resilience.FaultLedgerAppend && got != 7 {
				t.Fatalf("fault payload = %v, want 7", got)
			}
			if a.End() != 0 {
				t.Fatalf("uncommitted record moved End to %d", a.End())
			}
			if err := a.Append(context.Background(), []byte(manifestCut+"\n"), "", nil); !errors.Is(err, errPoisoned) {
				t.Fatalf("append after poisoning: %v", err)
			}
		})
	}
}

// TestReopen: Reset reopens the log empty in place — the same inode,
// so the writer's lock is never let go — and appends land after init.
// A failed fsync inside the reset poisons the handle.
func TestReopen(t *testing.T) {
	a, path := openTest(t, manifestCut+"\n")
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Reset(context.Background(), []byte("HDR")); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, path); got != "HDR" || a.End() != 3 {
		t.Fatalf("reset file holds %q, End = %d", got, a.End())
	}
	if after, err := os.Stat(path); err != nil || !os.SameFile(before, after) {
		t.Fatalf("Reset replaced the file (%v)", err)
	}
	if err := a.Append(context.Background(), []byte(ledgerEntry+"\n"), "", nil); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, path); got != "HDR"+ledgerEntry+"\n" || a.End() != int64(len(got)) {
		t.Fatalf("after reset + append: %q, End = %d", got, a.End())
	}

	inj := resilience.NewInjector().On(resilience.FaultSyncEIO, func(context.Context, any) error {
		return errors.New("simulated EIO")
	})
	if err := a.Reset(resilience.WithInjector(context.Background(), inj), []byte("HDR")); !errors.Is(err, errPoisoned) || !errors.Is(a.Err(), errPoisoned) {
		t.Fatalf("Reset with a failing fsync = %v", err)
	}
	if err := a.Append(context.Background(), []byte(ledgerEntry+"\n"), "", nil); !errors.Is(err, errPoisoned) {
		t.Fatalf("append after a failed reset: %v", err)
	}
}

// TestReopenLocksBeforeTruncating: Reset truncates under the lock the
// writer already holds, so in the window where the file is empty — a
// journal a second writer would take as its own — a second open is
// refused with ErrLocked and changes no byte, and after the reset the
// file still holds only the holder's header and appends.
func TestReopenLocksBeforeTruncating(t *testing.T) {
	a, path := openTest(t, manifestCut+"\n")
	var inWindow bool
	inj := resilience.NewInjector().On(resilience.FaultSyncEIO, func(context.Context, any) error {
		if inWindow {
			return nil
		}
		inWindow = true
		if got := readFile(t, path); got != "" {
			t.Errorf("first fsync of the reset sees %q, want the truncated file", got)
		}
		b, err := Open(path, errPoisoned, scanRaw)
		if err == nil {
			b.Close()
			t.Errorf("a second handle opened the journal mid-reset")
		} else if !errors.Is(err, ErrLocked) {
			t.Errorf("second open mid-reset = %v, want ErrLocked", err)
		}
		if got := readFile(t, path); got != "" {
			t.Errorf("the refused open changed the truncated file to %q", got)
		}
		return nil
	})
	if err := a.Reset(resilience.WithInjector(context.Background(), inj), []byte("HDR")); err != nil {
		t.Fatal(err)
	}
	if !inWindow {
		t.Fatal("Reset fsynced nothing between its truncate and its header")
	}
	if b, err := Open(path, errPoisoned, scanRaw); !errors.Is(err, ErrLocked) {
		if err == nil {
			b.Close()
		}
		t.Fatalf("second open after a reset = %v, want ErrLocked", err)
	}
	if err := a.Append(context.Background(), []byte(ledgerEntry+"\n"), "", nil); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, path); got != "HDR"+ledgerEntry+"\n" {
		t.Fatalf("after the reset the file holds %q", got)
	}
}

// scanRaw is the scan callback of a journal with no record rules.
func scanRaw(raw []byte) (int64, error) {
	return Scan(raw, decodeRaw, func(int, json.RawMessage) error { return nil })
}

// TestOneWriter: a second open of a journal while its holder is part
// way through writing a record — bytes a second open would take for a
// torn tail and truncate — is refused with ErrLocked, names the path and
// changes no byte. Closing the holder frees the file.
func TestOneWriter(t *testing.T) {
	a, path := openTest(t, manifestCut+"\n")
	if _, err := a.f.Write([]byte(manifestCharged[:30])); err != nil {
		t.Fatal(err)
	}
	held := readFile(t, path)
	b, err := Open(path, errPoisoned, scanRaw)
	if err == nil {
		b.Close()
		t.Fatalf("a second handle opened the held journal; the file now holds %q", readFile(t, path))
	}
	if !errors.Is(err, ErrLocked) || !strings.Contains(err.Error(), path) {
		t.Fatalf("second open of a held journal: %v, want ErrLocked naming %s", err, path)
	}
	if got := readFile(t, path); got != held {
		t.Fatalf("the refused open changed the file from %q to %q", held, got)
	}

	a.Close()
	b, err = Open(path, errPoisoned, scanRaw)
	if err != nil {
		t.Fatalf("open after the holder closed: %v", err)
	}
	b.Close()
	if got := readFile(t, path); got != manifestCut+"\n" {
		t.Fatalf("open after the holder closed left %q", got)
	}
}
