package dp

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// scanLedgerFile reads the ledger at path and scans the bytes read-only.
func scanLedgerFile(t *testing.T, path string) (*LedgerScan, error) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return ScanLedger(path, raw)
}

// The read-only scan of a freshly written ledger is clean and reproduces
// exactly the state the live handle holds.
func TestLedgerVerifyClean(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger")
	l, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	chargeN(t, l, "v", 5)
	sc, err := scanLedgerFile(t, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Entries) != 5 || sc.Torn {
		t.Fatalf("scan: %d entries, torn=%v", len(sc.Entries), sc.Torn)
	}
	if got, want := sc.Spent["v"], l.Spent("v"); got != want {
		t.Fatalf("scan spent %v, live ledger says %v", got, want)
	}
}

// A torn tail — the only damage a crashed append leaves — is tolerated
// by the scan (reported, not refused), and OpenLedger heals it so the
// reopened ledger verifies clean.
func TestLedgerVerifyTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger")
	l, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	chargeN(t, l, "v", 3)
	l.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte{}, raw...), []byte("0badc0de {\"seq\":4,")...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	sc, err := ScanLedger(path, torn)
	if err != nil {
		t.Fatalf("scan refused a torn tail: %v", err)
	}
	if !sc.Torn || len(sc.Entries) != 3 || sc.Durable != int64(len(raw)) {
		t.Fatalf("scan: torn=%v entries=%d durable=%d (want true, 3, %d)",
			sc.Torn, len(sc.Entries), sc.Durable, len(raw))
	}

	l2, err := OpenLedger(path)
	if err != nil {
		t.Fatalf("reopen over a torn tail: %v", err)
	}
	defer l2.Close()
	healed, err := scanLedgerFile(t, path)
	if err != nil {
		t.Fatalf("verify after heal: %v", err)
	}
	if healed.Torn || len(healed.Entries) != 3 || healed.Durable != int64(len(raw)) {
		t.Fatalf("healed scan: torn=%v entries=%d durable=%d (want false, 3, %d)",
			healed.Torn, len(healed.Entries), healed.Durable, len(raw))
	}
}

// Interior corruption — a flipped byte in the middle of the file — is a
// typed LedgerFault naming the exact line, expected sequence, and byte
// offset of the first bad line.
func TestLedgerVerifyInteriorCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger")
	l, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	chargeN(t, l, "v", 4)
	l.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Find line 2's start and flip a byte inside its JSON body.
	lineStart := int64(0)
	seen := 0
	for i, b := range raw {
		if b == '\n' {
			seen++
			if seen == 1 {
				lineStart = int64(i + 1)
				break
			}
		}
	}
	raw[lineStart+20] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	_, serr := ScanLedger(path, raw)
	var lf *LedgerFault
	if !errors.As(serr, &lf) {
		t.Fatalf("scan returned %v, want *LedgerFault", serr)
	}
	if lf.Line != 2 || lf.Seq != 2 || lf.Offset != lineStart {
		t.Fatalf("fault at line %d seq %d offset %d, want line 2 seq 2 offset %d: %v",
			lf.Line, lf.Seq, lf.Offset, lineStart, lf)
	}
}

// A checkpointed ledger verifies through the checkpoint line: Base and
// the spent fold come from the checkpoint, the tail from live entries.
func TestLedgerVerifyCheckpointAndTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger")
	l, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	chargeN(t, l, "v", 4)
	if err := l.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	chargeN(t, l, "v", 2)

	sc, err := scanLedgerFile(t, path)
	if err != nil {
		t.Fatalf("verify over checkpoint+tail: %v", err)
	}
	if sc.Base != 4 || len(sc.Entries) != 2 {
		t.Fatalf("scan: base=%d entries=%d, want 4, 2", sc.Base, len(sc.Entries))
	}
	if got, want := sc.Spent["v"], l.Spent("v"); got != want {
		t.Fatalf("scan spent %v, live ledger says %v", got, want)
	}

	// A checkpoint anywhere but line 1 means the file was spliced.
	raw, _ := os.ReadFile(path)
	var firstLine []byte
	for i, b := range raw {
		if b == '\n' {
			firstLine = append([]byte{}, raw[:i+1]...)
			break
		}
	}
	spliced := append(append([]byte{}, raw...), firstLine...)
	_, serr := ScanLedger(path, spliced)
	var lf *LedgerFault
	if !errors.As(serr, &lf) || lf.Line != 4 {
		t.Fatalf("spliced checkpoint: got %v, want LedgerFault at line 4", serr)
	}
}
