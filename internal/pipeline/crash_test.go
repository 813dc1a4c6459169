package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dp"
	"repro/internal/ingest"
	"repro/internal/resilience"
)

// Exactly-once under SIGKILL: a child process runs the supervisor over
// a known feed, stalls at one lifecycle transition (a fault point fires
// either mid-stage or just before the stage's manifest record), and the
// parent SIGKILLs it there — a real crash. The parent then recovers
// in-process and asserts the finished pipeline is byte-identical to a
// never-crashed golden run: every window file, latest.csv, the manifest
// journal, and the ledger — which proves no window was lost, none
// published twice, and the budget never double-charged, at every single
// transition of the state machine.

const (
	pipeCrashChildEnv = "STPT_PIPELINE_CRASH_CHILD"
	pipeCrashDirEnv   = "STPT_PIPELINE_CRASH_DIR"
	pipeCrashWindows  = 4 // tpCt / tpWindow
)

// pipeCrashConfig is the fixed supervisor config every run — child,
// golden, and recovery — uses, so their outputs are comparable.
func pipeCrashConfig(dir string) Config {
	return Config{
		Dataset: "stream",
		OutDir:  filepath.Join(dir, "out"),
		Window:  tpWindow,
		EpsNode: 0.5,
		Seed:    42,
	}
}

// buildCrashStack assembles the full pipeline stack in dir. feed=true
// ingests the deterministic stream (a fresh run); feed=false relies on
// WAL replay alone — what a real recovery does, since re-sending the
// feed would double-count every reading.
func buildCrashStack(ctx context.Context, dir string, feed bool) (*Supervisor, func(), error) {
	s, cleanup, err := openCrashStack(dir, 0)
	if err != nil {
		return nil, nil, err
	}
	if feed {
		if _, _, err := s.in.Ingest(ctx, strings.NewReader(feedCSV(tpCt))); err != nil {
			cleanup()
			return nil, nil, err
		}
	}
	return s, cleanup, nil
}

// openCrashStack opens (or recovers) the crash-stack layers in dir
// without feeding anything; compactBatches > 0 turns on the ingester's
// snapshot compaction.
func openCrashStack(dir string, compactBatches int) (*Supervisor, func(), error) {
	in, err := ingest.New(ingest.Config{Cx: tpCx, Cy: tpCy, Ct: tpCt, BatchSize: 8, CompactBatches: compactBatches},
		filepath.Join(dir, "feed.wal"))
	if err != nil {
		return nil, nil, err
	}
	led, err := dp.OpenLedger(filepath.Join(dir, "ledger"))
	if err != nil {
		in.Close()
		return nil, nil, err
	}
	man, err := OpenManifest(filepath.Join(dir, "manifest"))
	if err != nil {
		in.Close()
		led.Close()
		return nil, nil, err
	}
	s, err := New(pipeCrashConfig(dir), in, led, man)
	if err != nil {
		in.Close()
		led.Close()
		man.Close()
		return nil, nil, err
	}
	cleanup := func() { man.Close(); led.Close(); in.Close() }
	return s, cleanup, nil
}

// TestPipelineCrashChild is the re-exec target; a no-op unless the
// parent set the mode env var.
func TestPipelineCrashChild(t *testing.T) {
	mode := os.Getenv(pipeCrashChildEnv)
	if mode == "" {
		t.Skip("re-exec helper; run via TestPipelineKillRecover")
	}
	dir := os.Getenv(pipeCrashDirEnv)
	marker := filepath.Join(dir, "stalled")
	stall := func() error {
		if err := os.WriteFile(marker, []byte("stalled\n"), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "marker:", err)
			os.Exit(3)
		}
		select {} // wait for the parent's SIGKILL
	}
	stallAtWindow2 := func(_ context.Context, payload any) error {
		if payload.(int) == 2 {
			return stall()
		}
		return nil
	}

	inj := resilience.NewInjector()
	switch mode {
	case "mid-cut":
		// Window 2's sub-matrix is cut, nothing staged or journalled yet.
		inj.On(resilience.FaultWindowCut, stallAtWindow2)
	case "mid-charge":
		// Window 2's tree charge (level 1 → ledger seq 2) is written but
		// not yet fsynced: the classic double-charge window.
		inj.On(resilience.FaultLedgerAppend, func(_ context.Context, payload any) error {
			if payload.(int) == 2 {
				return stall()
			}
			return nil
		})
	case "mid-publish":
		// Charge durable, window file not yet visible.
		inj.On(resilience.FaultWindowPublish, stallAtWindow2)
	case "mid-reload":
		// Published but the serving tier was never told.
		inj.On(resilience.FaultReloadNotify, stallAtWindow2)
	case "before-cut-record", "before-released-record", "before-charged-record",
		"before-published-record", "before-reloaded-record":
		// The stage's side effect is durable; its manifest record is not.
		state := State(strings.TrimSuffix(strings.TrimPrefix(mode, "before-"), "-record"))
		inj.On(resilience.FaultManifestAppend, func(_ context.Context, payload any) error {
			rec := payload.(*Record)
			if rec.Window == 2 && rec.State == state {
				return stall()
			}
			return nil
		})
	default:
		fmt.Fprintln(os.Stderr, "unknown crash mode", mode)
		os.Exit(3)
	}
	ctx := resilience.WithInjector(context.Background(), inj)

	s, cleanup, err := buildCrashStack(ctx, dir, true)
	if err != nil {
		fmt.Fprintln(os.Stderr, "child stack:", err)
		os.Exit(3)
	}
	defer cleanup()
	err = s.RunOnce(ctx)
	fmt.Fprintln(os.Stderr, "child ran to completion without stalling, RunOnce:", err)
	os.Exit(3)
}

// killAtTransition re-execs the child in the given mode, waits for the
// stall marker, and SIGKILLs it.
func killAtTransition(t *testing.T, dir, mode string) {
	t.Helper()
	stallChild(t, dir, mode)()
}

// stallChild re-execs the child in the given mode and waits for the
// stall marker. The child holds its stack until the returned kill
// SIGKILLs it and waits for it to exit.
func stallChild(t *testing.T, dir, mode string) (kill func()) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestPipelineCrashChild$")
	cmd.Env = append(os.Environ(), pipeCrashChildEnv+"="+mode, pipeCrashDirEnv+"="+dir)
	var childLog bytes.Buffer
	cmd.Stdout, cmd.Stderr = &childLog, &childLog
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()

	marker := filepath.Join(dir, "stalled")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(marker); err == nil {
			break
		}
		select {
		case err := <-done:
			t.Fatalf("child exited before stalling (%v)\n%s", err, childLog.String())
		default:
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("child never reached the fault point\n%s", childLog.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	return func() {
		t.Helper()
		if err := cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		<-done
	}
}

// goldenArtifacts captures everything exactly-once recovery must
// reproduce byte-for-byte.
type goldenArtifacts struct {
	files map[string][]byte // window files + latest.csv + manifest + ledger
	spent uint64            // Float64bits of the ledger spend
}

// captureArtifacts reads a finished pipeline directory.
func captureArtifacts(t *testing.T, dir string) goldenArtifacts {
	t.Helper()
	g := goldenArtifacts{files: map[string][]byte{}}
	names := []string{"manifest", "ledger", filepath.Join("out", "latest.csv")}
	for w := 1; w <= pipeCrashWindows; w++ {
		names = append(names, filepath.Join("out", fmt.Sprintf("window-%06d.csv", w)))
	}
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("capturing %s: %v", name, err)
		}
		g.files[name] = b
	}
	sc, err := dp.ScanLedger(filepath.Join(dir, "ledger"), g.files["ledger"])
	if err != nil {
		t.Fatal(err)
	}
	g.spent = math.Float64bits(sc.Spent["stream"])
	return g
}

// requireSame fails t unless the finished pipeline in dir reproduces g
// byte for byte; after names what the run went through.
func (g goldenArtifacts) requireSame(t *testing.T, dir, after string) {
	t.Helper()
	got := captureArtifacts(t, dir)
	if got.spent != g.spent {
		t.Fatalf("spend bits %x != golden %x after %s — the budget was double- or under-charged",
			got.spent, g.spent, after)
	}
	for name, want := range g.files {
		if !bytes.Equal(got.files[name], want) {
			t.Errorf("%s differs from the golden run after %s", name, after)
		}
	}
}

// runGolden runs the crash-stack stream once, clean and uninterrupted,
// and captures its artifacts.
func runGolden(t *testing.T) goldenArtifacts {
	t.Helper()
	goldenDir := t.TempDir()
	s, cleanup, err := buildCrashStack(context.Background(), goldenDir, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunOnce(context.Background()); err != nil {
		cleanup()
		t.Fatal(err)
	}
	cleanup()
	golden := captureArtifacts(t, goldenDir)
	// Sanity: the tree spend for 4 windows is 3 levels · ε_node.
	if want := math.Float64bits(1.5); golden.spent != want {
		t.Fatalf("golden spend bits %x, want %x", golden.spent, want)
	}
	return golden
}

// TestPipelineKillRecover is the acceptance suite: SIGKILL at every
// lifecycle transition, recover, finish, and demand byte-identical
// artifacts against a never-crashed run.
func TestPipelineKillRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test")
	}
	golden := runGolden(t)

	modes := []string{
		"mid-cut", "before-cut-record",
		"before-released-record",
		"mid-charge", "before-charged-record",
		"mid-publish", "before-published-record",
		"mid-reload", "before-reloaded-record",
	}
	for _, mode := range modes {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			killAtTransition(t, dir, mode)

			// Recover in-process: reopen every layer over the killed
			// child's files and drive the stream to completion.
			re, recleanup, err := buildCrashStack(context.Background(), dir, false)
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer recleanup()
			if err := re.RunOnce(context.Background()); err != nil {
				t.Fatalf("recovery run: %v", err)
			}
			st := re.Status()
			if st.Published != pipeCrashWindows || st.State != StateReloaded {
				t.Fatalf("recovered status: %+v", st)
			}

			golden.requireSame(t, dir, "crash recovery")
			// Staging swept: every window completed.
			ents, err := os.ReadDir(filepath.Join(dir, "out", "staging"))
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				// The killed child may leave an orphaned temp file from the
				// very write it died inside; those are debris, not releases.
				if !strings.Contains(e.Name(), ".tmp-") {
					t.Errorf("staging leftover %s after full recovery", e.Name())
				}
			}
		})
	}
}

// TestPipelineReleaseRetryMatchesGolden: window 2's released record
// fails to append once, with a retryable error, after its held cut was
// noised in place. The stage's retry must rebuild the release from the
// staged cut rather than noise the held matrix a second time, and the
// finished run must equal the golden run byte for byte.
func TestPipelineReleaseRetryMatchesGolden(t *testing.T) {
	golden := runGolden(t)
	dir := t.TempDir()
	failed := false
	inj := resilience.NewInjector().On(resilience.FaultManifestAppend, func(_ context.Context, payload any) error {
		if rec := payload.(*Record); rec.Window == 2 && rec.State == StateReleased && !failed {
			failed = true
			return resilience.MarkRetryable(errors.New("injected manifest append failure"))
		}
		return nil
	})
	ctx := resilience.WithInjector(context.Background(), inj)
	s, cleanup, err := buildCrashStack(ctx, dir, true)
	if err != nil {
		t.Fatal(err)
	}
	s.cfg.Policy = resilience.Policy{MaxAttempts: 2}
	err = s.RunOnce(ctx)
	cleanup()
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatal("the released record's append never failed")
	}
	golden.requireSame(t, dir, "a retried release")
}

// TestPipelineCompactedStreamMatchesGolden: WAL compaction changes no
// output. The crash-stack stream runs with a snapshot every two batches
// and is closed and reopened mid-window, so the second process recovers
// from snapshot + tail and cuts window 2 from readings of both. Every
// artifact must equal the uncompacted golden byte for byte.
func TestPipelineCompactedStreamMatchesGolden(t *testing.T) {
	golden := runGolden(t)
	ctx := context.Background()
	dir := t.TempDir()
	// Intervals 0–4: window 1 publishes, window 2 ([3,6)) waits for t=5.
	firstPart := feedCSV(5)

	// First process: the first part of the feed, then a clean close.
	func() {
		s, cleanup, err := openCrashStack(dir, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer cleanup()
		ingestCSV(t, s.in, firstPart)
		if err := s.RunOnce(ctx); err != nil {
			t.Fatal(err)
		}
		if st := s.in.Stats(); st.Compactions == 0 {
			t.Fatalf("first part never compacted: %+v", st)
		}
	}()

	// 20 readings in batches of 8: two batches (t=0–3) folded into the
	// snapshot, the third (t=4) left in the active segment as the tail.
	walPath := filepath.Join(dir, "feed.wal")
	if _, err := os.Stat(walPath + ".snap"); err != nil {
		t.Fatalf("no snapshot to recover from: %v", err)
	}
	if fi, err := os.Stat(walPath); err != nil || fi.Size() <= int64(len("STPTWAL\x01")) {
		t.Fatalf("no WAL tail beyond the snapshot: %v", err)
	}
	s, cleanup, err := openCrashStack(dir, 2)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer cleanup()
	if got, want := s.in.Stats().Replayed, int64(5*tpCx*tpCy); got != want {
		t.Fatalf("recovered %d readings from snapshot + tail, want %d", got, want)
	}
	ingestCSV(t, s.in, strings.TrimPrefix(feedCSV(tpCt), firstPart))
	if err := s.RunOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if st := s.in.Stats(); st.Compactions == 0 {
		t.Fatalf("rest of the feed never compacted: %+v", st)
	}

	golden.requireSame(t, dir, "WAL compaction")
}
