package dp

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/journal"
)

// chargeN appends n entries for dataset with awkward decimal epsilons —
// values whose float sums expose any change in accumulation order.
func chargeN(t *testing.T, l *Ledger, dataset string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		e := LedgerEntry{Dataset: dataset, EpsPattern: 0.1, EpsSanitize: 0.03}
		if err := l.Charge(context.Background(), e, 0); err != nil {
			t.Fatal(err)
		}
	}
}

// writeLedgerCheckpoint replaces the ledger at path with one checkpoint
// line folding seq entries into spent, in the format earlier builds'
// compaction wrote, so the reader of such ledgers stays tested.
func writeLedgerCheckpoint(t *testing.T, path string, seq int, spent map[string]float64) {
	t.Helper()
	line, err := journal.Encode(struct {
		Checkpoint *ledgerCheckpoint `json:"checkpoint"`
	}{&ledgerCheckpoint{Seq: seq, Spent: spent}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, line, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLedgerOpensCompactedCheckpoint: a ledger that an earlier build
// compacted — these exact bytes, a checkpoint folding 7 charges of
// 0.1+0.03 to "v" and one of 1/3+0.2 to "w" — opens with the spend the
// original entries folded to, bit for bit, and continues its sequence.
func TestLedgerOpensCompactedCheckpoint(t *testing.T) {
	const compacted = "876c2479 {\"checkpoint\":{\"seq\":8,\"spent\":{\"v\":0.91,\"w\":0.5333333333333333}}}\n"
	path := filepath.Join(t.TempDir(), "ledger")
	if err := os.WriteFile(path, []byte(compacted), 0o644); err != nil {
		t.Fatal(err)
	}
	var v float64
	for i := 0; i < 7; i++ {
		v += 0.1 + 0.03 // the fold Charge ran before the compaction
	}
	w := 1.0/3 + 0.2

	l := openTestLedger(t, path)
	if got := l.Spent("v"); math.Float64bits(got) != math.Float64bits(v) {
		t.Fatalf("Spent(v) = %.17g, the original entries folded to %.17g", got, v)
	}
	if got := l.Spent("w"); math.Float64bits(got) != math.Float64bits(w) {
		t.Fatalf("Spent(w) = %.17g, the original entry was %.17g", got, w)
	}
	if l.Len() != 8 || len(l.Entries()) != 0 {
		t.Fatalf("len=%d live=%d, want 8 and 0", l.Len(), len(l.Entries()))
	}
	chargeN(t, l, "v", 1)
	if e := l.Entries(); len(e) != 1 || e[0].Seq != 9 {
		t.Fatalf("the next charge got %+v, want seq 9", e)
	}

	// The test helper writes the same bytes.
	writeLedgerCheckpoint(t, path, 8, map[string]float64{"v": v, "w": w})
	if raw, _ := os.ReadFile(path); string(raw) != compacted {
		t.Fatalf("writeLedgerCheckpoint wrote %q, earlier builds %q", raw, compacted)
	}
}

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
	chargeN(t, l, "v", 4)
	folded := l.Spent("v")
	l.Close()
	writeLedgerCheckpoint(t, path, 4, map[string]float64{"v": folded})
	if l, err = OpenLedger(path); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
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
