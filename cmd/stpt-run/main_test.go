package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/dp"
)

func TestParseModel(t *testing.T) {
	for _, name := range []string{"rnn", "gru", "lstm", "attentive-gru", "transformer", "persistence"} {
		k, err := parseModel(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if k.String() != name {
			t.Fatalf("parseModel(%q) = %v", name, k)
		}
	}
	if _, err := parseModel("nope"); err == nil {
		t.Fatal("expected error for unknown model")
	}
}

// TestChargeLedgerRefusal: the CLI gate charges within budget, persists
// across invocations, and surfaces the typed refusal once the lifetime
// budget is spent — the path main maps to a non-zero exit. The refusal
// comes from openLedger, before a release would be computed.
func TestChargeLedgerRefusal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger")
	ctx := context.Background()
	charge := func(entry dp.LedgerEntry) error {
		led, err := openLedger(path, entry, 60)
		if err != nil {
			return err
		}
		defer led.Close()
		return chargeLedger(ctx, led, path, entry, 60)
	}
	entry := dp.LedgerEntry{Dataset: "ca.csv", Algorithm: "stpt", EpsPattern: 10, EpsSanitize: 20}
	if err := charge(entry); err != nil {
		t.Fatal(err)
	}
	if err := charge(entry); err != nil {
		t.Fatal(err)
	}
	err := charge(entry)
	if !errors.Is(err, dp.ErrBudgetExhausted) {
		t.Fatalf("third charge: %v, want ErrBudgetExhausted", err)
	}
	// A different dataset against the same ledger is unaffected.
	if err := charge(dp.LedgerEntry{Dataset: "tx.csv", EpsSanitize: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestRefusesBeforeRelease runs the binary against a ledger another
// process holds and against a spent budget: each run exits non-zero with
// the refusal, prints no "released" line (the run never starts), writes
// no release and leaves the ledger as it was.
func TestRefusesBeforeRelease(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "stpt-run")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	in := filepath.Join(dir, "ca.csv")
	f, err := os.Create(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := datasets.SaveCSV(datasets.CA.Generate(datasets.Uniform, 4, 4, 24, 1), f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	ledger := filepath.Join(dir, "ledger")
	out := filepath.Join(dir, "rel.csv")
	run := func() (string, error) {
		cmd := exec.Command(bin, "-in", in, "-ttrain", "12", "-alg", "identity",
			"-ledger", ledger, "-dataset", "ca", "-budget", "30", "-o", out)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		return stderr.String(), err
	}
	refused := func(what, stderr string, err error, want string) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: exit 0, want a refusal\n%s", what, stderr)
		}
		if !strings.Contains(stderr, want) {
			t.Fatalf("%s: stderr lacks %q:\n%s", what, want, stderr)
		}
		if strings.Contains(stderr, "released") {
			t.Fatalf("%s: the release ran before the refusal:\n%s", what, stderr)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Fatalf("%s: %s exists (%v), want no release", what, out, err)
		}
	}

	held, err := dp.OpenLedger(ledger)
	if err != nil {
		t.Fatal(err)
	}
	stderr, err := run()
	held.Close()
	refused("held ledger", stderr, err, "another writer holds the journal")

	if stderr, err := run(); err != nil {
		t.Fatalf("first release within budget: %v\n%s", err, stderr)
	}
	if err := os.Remove(out); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	stderr, err = run()
	refused("spent budget", stderr, err, "refusing to release")
	if after, err := os.ReadFile(ledger); err != nil || string(after) != string(before) {
		t.Fatalf("the refused run changed the ledger (%v)", err)
	}
}
