package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// FuzzJournalDecode hammers the line codec and the scan every line
// journal recovers through: no input may panic them, and every line
// they accept must re-encode to exactly its own bytes — so a durable
// prefix is precisely the records recovery believes it holds.
func FuzzJournalDecode(f *testing.F) {
	ledger := ledgerCheckpoint + "\n" + ledgerEntry + "\n"
	manifest := manifestCut + "\n" + manifestCharged + "\n"
	for _, seed := range []string{
		ledgerEntry, ledgerCheckpoint, manifestCut, manifestCharged,
		ledger, manifest,
		ledger + ledgerEntry[:25],                  // torn tail
		manifestCut + "\ndeadbeef {}\n" + manifest, // interior fault
		"", "\n", "00000000 ", line(`{"seq": 1}`),
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		if v, err := decodeRaw(raw); err == nil {
			enc, err := Encode(v)
			if err != nil || !bytes.Equal(enc, append(raw[:len(raw):len(raw)], '\n')) {
				t.Fatalf("accepted line %q re-encodes to %q (%v)", raw, enc, err)
			}
		}

		var reenc []byte
		durable, err := Scan(raw, decodeRaw, func(_ int, v json.RawMessage) error {
			enc, err := Encode(v)
			reenc = append(reenc, enc...)
			return err
		})
		var fault *Fault
		switch {
		case errors.As(err, &fault):
			if fault.Line < 1 || fault.Offset < 0 || fault.Offset >= int64(len(raw)) {
				t.Fatalf("fault %v lies outside the %d input bytes", fault, len(raw))
			}
		case err != nil:
			t.Fatalf("scan returned a non-fault error: %v", err)
		case durable < 0 || durable > int64(len(raw)):
			t.Fatalf("durable offset %d outside the %d input bytes", durable, len(raw))
		case !bytes.Equal(reenc, raw[:durable]):
			t.Fatalf("durable prefix %q re-encodes to %q", raw[:durable], reenc)
		}
	})
}
