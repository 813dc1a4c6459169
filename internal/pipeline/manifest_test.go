package pipeline

import (
	"context"
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

// walk appends window w's full lifecycle to m.
func walk(t *testing.T, m *Manifest, w int) {
	t.Helper()
	ctx := context.Background()
	recs := []Record{
		{Window: w, State: StateCut, T0: (w - 1) * 4, T1: w * 4, Seed: int64(w)},
		{Window: w, State: StateReleased, Checksum: uint32(w)},
		{Window: w, State: StateCharged, Eps: 0.5},
		{Window: w, State: StatePublished},
		{Window: w, State: StateReloaded},
	}
	for _, r := range recs {
		if err := m.Append(ctx, r); err != nil {
			t.Fatalf("append (%d,%s): %v", r.Window, r.State, err)
		}
	}
}

func TestManifestRoundTripAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest")
	m, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	walk(t, m, 1)
	walk(t, m, 2)
	if err := m.Append(context.Background(), Record{Window: 3, State: StateCut, T0: 8, T1: 12, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	m.Close()

	re, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 11 || re.LastWindow() != 3 || re.LastState() != StateCut {
		t.Fatalf("reopened: len=%d window=%d state=%s", re.Len(), re.LastWindow(), re.LastState())
	}
	cut, ok := re.Get(3, StateCut)
	if !ok || cut.T0 != 8 || cut.T1 != 12 || cut.Seed != 3 {
		t.Fatalf("Get(3, cut) = %+v, %v", cut, ok)
	}
	if rel, ok := re.Get(2, StateReleased); !ok || rel.Checksum != 2 {
		t.Fatalf("Get(2, released) = %+v, %v", rel, ok)
	}
	if _, ok := re.Get(3, StateReleased); ok {
		t.Fatal("phantom released record for window 3")
	}
	// Sequence numbers are gapless in append order.
	for i, r := range re.Records() {
		if r.Seq != i+1 {
			t.Fatalf("record %d carries seq %d", i, r.Seq)
		}
	}
}

// TestManifestRefusesIllegalTransitions pins the state machine: the
// journal only ever accepts the exact next lifecycle step.
func TestManifestRefusesIllegalTransitions(t *testing.T) {
	ctx := context.Background()
	m, err := OpenManifest(filepath.Join(t.TempDir(), "manifest"))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// First record must be window 1's cut.
	for _, bad := range []Record{
		{Window: 1, State: StateReleased},
		{Window: 2, State: StateCut, T0: 0, T1: 4},
	} {
		if err := m.Append(ctx, bad); err == nil {
			t.Fatalf("empty journal accepted (%d,%s)", bad.Window, bad.State)
		}
	}
	if err := m.Append(ctx, Record{Window: 1, State: StateCut, T0: 0, T1: 4}); err != nil {
		t.Fatal(err)
	}
	// From (1, cut) only (1, released) is legal.
	for _, bad := range []Record{
		{Window: 1, State: StateCut, T0: 0, T1: 4}, // repeat
		{Window: 1, State: StateCharged},           // skip
		{Window: 2, State: StateCut, T0: 4, T1: 8}, // next window too early
	} {
		if err := m.Append(ctx, bad); err == nil {
			t.Fatalf("after (1,cut) accepted (%d,%s)", bad.Window, bad.State)
		}
	}
	if m.Len() != 1 {
		t.Fatalf("refused appends changed the journal: len=%d", m.Len())
	}
}

// TestManifestTornTailTruncated: a crash mid-append leaves a torn final
// line; open drops it and the journal resumes from the previous record.
func TestManifestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest")
	m, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	walk(t, m, 1)
	m.Close()

	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A half-written next record, no terminating newline.
	if err := os.WriteFile(path, append(append([]byte{}, pristine...), []byte("deadbeef {\"seq\":6,\"win")...), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenManifest(path)
	if err != nil {
		t.Fatalf("torn tail refused: %v", err)
	}
	if re.Len() != 5 || re.LastState() != StateReloaded {
		t.Fatalf("after torn tail: len=%d state=%s", re.Len(), re.LastState())
	}
	// The truncation is durable: the file is byte-identical to pristine.
	re.Close()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(pristine) {
		t.Fatal("torn tail not healed back to the durable prefix")
	}
}

// TestManifestInteriorCorruptionRefused: damage anywhere but the tail
// is not a crash artefact — it refuses with ErrManifestCorrupt.
func TestManifestInteriorCorruptionRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest")
	m, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	walk(t, m, 1)
	m.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	// Flip a byte inside the second record's JSON.
	lines[1] = strings.Replace(lines[1], "released", "relXased", 1)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenManifest(path); !errors.Is(err, ErrManifestCorrupt) {
		t.Fatalf("interior corruption opened: %v", err)
	}

	// A sequence gap refuses too: drop the middle record entirely.
	spliced := append([]string{}, lines[:1]...)
	orig := strings.SplitAfter(string(raw), "\n")
	spliced = append(spliced, orig[2:]...)
	if err := os.WriteFile(path, []byte(strings.Join(spliced, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenManifest(path); !errors.Is(err, ErrManifestCorrupt) {
		t.Fatalf("sequence gap opened: %v", err)
	}
}

// TestManifestPoisonedOnFailedSync: a failed fsync makes the durable
// state unknowable; the manifest must refuse every further append until
// a reopen re-reads the file.
func TestManifestPoisonedOnFailedSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest")
	m, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	boom := errors.New("simulated EIO on fsync")
	fails := true
	inj := resilience.NewInjector().On(resilience.FaultSyncEIO, func(context.Context, any) error {
		if fails {
			return boom
		}
		return nil
	})
	ctx := resilience.WithInjector(context.Background(), inj)

	err = m.Append(ctx, Record{Window: 1, State: StateCut, T0: 0, T1: 4})
	if !errors.Is(err, ErrManifestPoisoned) || !errors.Is(err, boom) {
		t.Fatalf("failed sync: %v", err)
	}
	// Poisoned: even a clean append refuses now.
	fails = false
	if err := m.Append(ctx, Record{Window: 1, State: StateCut, T0: 0, T1: 4}); !errors.Is(err, ErrManifestPoisoned) {
		t.Fatalf("append after poisoning: %v", err)
	}
	// A reopen recovers: the unsynced line is dropped or, if it made it
	// to disk, is a valid first record — either way the journal opens.
	m.Close()
	re, err := OpenManifest(path)
	if err != nil {
		t.Fatalf("reopen after poisoning: %v", err)
	}
	defer re.Close()
	if err := re.Append(context.Background(), nextRecord(re)); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
}

// TestManifestAppendENOSPCSelfHeals: a failed or short plain write is
// not a failed fsync — the torn tail is truncated away, the manifest
// stays usable, and the same record lands once space returns.
func TestManifestAppendENOSPCSelfHeals(t *testing.T) {
	for _, fault := range []resilience.Fault{resilience.FaultWriteENOSPC, resilience.FaultShortWrite} {
		t.Run(string(fault), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "manifest")
			m, err := OpenManifest(path)
			if err != nil {
				t.Fatal(err)
			}
			walk(t, m, 1)

			inj := resilience.NewInjector().On(fault, func(context.Context, any) error {
				return fmt.Errorf("injected: %w", syscall.ENOSPC)
			})
			next := nextRecord(m)
			err = m.Append(resilience.WithInjector(context.Background(), inj), next)
			if !resilience.IsDiskFull(err) {
				t.Fatalf("append with a full disk: %v, want disk-full", err)
			}
			if errors.Is(err, ErrManifestPoisoned) {
				t.Fatal("a healed ENOSPC must not poison the manifest")
			}
			if m.Len() != 5 {
				t.Fatalf("failed append changed the journal: len=%d", m.Len())
			}

			// Space returns: the same record lands.
			if err := m.Append(context.Background(), next); err != nil {
				t.Fatalf("append after space returned: %v", err)
			}
			m.Close()
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasSuffix(string(raw), "\n") || strings.Count(string(raw), "\n") != 6 {
				t.Fatalf("manifest holds a torn line:\n%s", raw)
			}
			re, err := OpenManifest(path)
			if err != nil {
				t.Fatalf("reopen after heal: %v", err)
			}
			defer re.Close()
			for i, r := range re.Records() {
				if r.Seq != i+1 {
					t.Fatalf("record %d carries seq %d", i, r.Seq)
				}
			}
			if re.Len() != 6 || re.LastWindow() != 2 || re.LastState() != StateCut {
				t.Fatalf("reopened: len=%d window=%d state=%s", re.Len(), re.LastWindow(), re.LastState())
			}
		})
	}
}

// nextRecord builds the legal next record for m's tip, for tests that
// only care that an append succeeds.
func nextRecord(m *Manifest) Record {
	w, st := m.LastWindow(), m.LastState()
	switch {
	case w == 0:
		return Record{Window: 1, State: StateCut, T0: 0, T1: 4}
	case st == StateReloaded:
		return Record{Window: w + 1, State: StateCut, T0: w * 4, T1: (w + 1) * 4}
	default:
		r := Record{Window: w, State: st.next()}
		if r.State == StateCut {
			r.T0, r.T1 = 0, 4
		}
		return r
	}
}

// TestManifestDecodeLineRejectsGarbage spot-checks the line parser the
// fuzz target hammers.
func TestManifestDecodeLineRejectsGarbage(t *testing.T) {
	good := `{"seq":1,"window":1,"state":"cut","t0":0,"t1":4}`
	okLine := func(doc string) string {
		return fmt.Sprintf("%08x %s", crc32.ChecksumIEEE([]byte(doc)), doc)
	}
	if _, err := DecodeLine([]byte(okLine(good))); err != nil {
		t.Fatalf("valid line refused: %v", err)
	}
	for name, line := range map[string]string{
		"no separator": "deadbeef",
		"bad checksum": "00000000 " + good,
		"not hex":      "zzzzzzzz " + good,
		"not json":     okLine("{nope"),
		"bad state":    okLine(`{"seq":1,"window":1,"state":"warp","t0":0,"t1":4}`),
		"zero window":  okLine(`{"seq":1,"window":0,"state":"cut","t0":0,"t1":4}`),
		"zero seq":     okLine(`{"seq":0,"window":1,"state":"cut","t0":0,"t1":4}`),
		"empty span":   okLine(`{"seq":1,"window":1,"state":"cut","t0":4,"t1":4}`),
		"negative eps": okLine(`{"seq":1,"window":1,"state":"charged","eps":-1}`),
		"infinite eps": okLine(`{"seq":1,"window":1,"state":"charged","eps":1e999}`),
	} {
		if _, err := DecodeLine([]byte(line)); err == nil {
			t.Errorf("%s accepted: %q", name, line)
		}
	}
}
