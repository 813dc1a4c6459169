package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildBench compiles the real binary into dir.
func buildBench(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "stpt-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runBench runs the binary and returns its stdout, stderr and exit code.
func runBench(t *testing.T, bin string, args ...string) (string, string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stdout.String(), stderr.String(), 0
	case errors.As(err, &exit):
		return stdout.String(), stderr.String(), exit.ExitCode()
	}
	t.Fatal(err)
	return "", "", 0
}

// withoutDone drops the wall-clock line, the one line of a table run
// that differs between runs.
func withoutDone(out string) string {
	var kept []string
	for _, line := range strings.SplitAfter(out, "\n") {
		if !strings.HasPrefix(line, "done in ") {
			kept = append(kept, line)
		}
	}
	return strings.Join(kept, "")
}

// TestRefusesWhatWouldRunNothing: an -exp that names no experiment, and
// a -shard that could record nothing, exit non-zero before any sweep
// runs instead of finishing "done".
func TestRefusesWhatWouldRunNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binary")
	}
	dir := t.TempDir()
	bin := buildBench(t, dir)
	ck := filepath.Join(dir, "part")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "fig6x"}, "valid: all, table2, fig9, fig6, fig6-single"},
		{[]string{"-exp", "fig8c", "-shard", "0/2", "-checkpoint", ck}, "not a comparison sweep"},
		{[]string{"-exp", "all", "-shard", "0/2", "-checkpoint", ck}, "not a comparison sweep"},
		{[]string{"-exp", "fig6", "-shard", "2/2", "-checkpoint", ck}, "not i/n"},
		{[]string{"-exp", "fig6", "-shard", "0/2"}, "-checkpoint (required)"},
		{[]string{"-exp", "fig6", "-shard", "0/2", "-checkpoint", ck, "-json", filepath.Join(dir, "rec.json")}, "no -json"},
	} {
		stdout, stderr, code := runBench(t, bin, append([]string{"-scale", "quick"}, tc.args...)...)
		if code == 0 || !strings.Contains(stderr, tc.want) || strings.Contains(stdout, "done in") {
			t.Fatalf("%v: exit %d, stderr %q, stdout %q; want a non-zero exit naming %q", tc.args, code, stderr, stdout, tc.want)
		}
	}
	if _, err := os.Stat(ck); !os.IsNotExist(err) {
		t.Fatalf("a refused -shard left a checkpoint file (stat: %v)", err)
	}
}

// TestUnknownExpLeavesNoCheckpoint: an -exp that names no experiment is
// refused before the -checkpoint file is opened, so the refusal leaves
// no file behind.
func TestUnknownExpLeavesNoCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binary")
	}
	dir := t.TempDir()
	bin := buildBench(t, dir)
	ck := filepath.Join(dir, "ck")
	_, stderr, code := runBench(t, bin, "-exp", "fig6x", "-scale", "quick", "-checkpoint", ck)
	if code != 1 || !strings.Contains(stderr, `unknown -exp "fig6x"`) {
		t.Fatalf("-exp fig6x: exit %d, stderr %q; want exit 1 naming the experiment", code, stderr)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != filepath.Base(bin) {
			t.Errorf("the refused run left %s behind", e.Name())
		}
	}
}

// TestShardsReduceToSerialTable drives the shard workflow end to end:
// two shards into their own files, concatenated in reverse order and
// reduced, print the serial table; shards run under different seeds
// concatenate into a file the reduction refuses.
func TestShardsReduceToSerialTable(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binary")
	}
	dir := t.TempDir()
	bin := buildBench(t, dir)
	exp := []string{"-exp", "fig6-single", "-dataset", "CA", "-scale", "quick", "-reps", "1"}
	serial, stderr, code := runBench(t, bin, exp...)
	if code != 0 {
		t.Fatalf("serial run: exit %d\n%s", code, stderr)
	}

	shardInto := func(shard, seed string) string {
		path := filepath.Join(dir, "part-"+seed+"-"+strings.ReplaceAll(shard, "/", "of"))
		stdout, stderr, code := runBench(t, bin, append(exp, "-seed", seed, "-shard", shard, "-checkpoint", path)...)
		if code != 0 || stdout != "" {
			t.Fatalf("shard %s: exit %d, stdout %q\n%s", shard, code, stdout, stderr)
		}
		return path
	}
	cat := func(name string, paths ...string) string {
		var all []byte
		for _, p := range paths {
			raw, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, raw...)
		}
		out := filepath.Join(dir, name)
		if err := os.WriteFile(out, all, 0o644); err != nil {
			t.Fatal(err)
		}
		return out
	}

	part0 := shardInto("0/2", "1")
	all := cat("all", shardInto("1/2", "1"), part0)
	reduced, stderr, code := runBench(t, bin, append(exp, "-checkpoint", all)...)
	if code != 0 {
		t.Fatalf("reduce: exit %d\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "resuming from") {
		t.Fatalf("reduce did not resume from the shards: %s", stderr)
	}
	if withoutDone(reduced) != withoutDone(serial) {
		t.Fatalf("reduced table\n%s\nserial table\n%s", reduced, serial)
	}

	mixed := cat("mixed", part0, shardInto("1/2", "2"))
	if _, stderr, code := runBench(t, bin, append(exp, "-seed", "2", "-checkpoint", mixed)...); code == 0 || !strings.Contains(stderr, "mixes cells") {
		t.Fatalf("shards run under -seed 1 and -seed 2 reduced: exit %d\n%s", code, stderr)
	}
}
