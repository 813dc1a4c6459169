package pipeline

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dp"
	"repro/internal/ingest"
	"repro/internal/journal"
)

// TestKilledHolderFreesJournals: while a child process holds the stack,
// stalled mid-charge with window 2's ledger line written but not
// fsynced, the parent's opens of the WAL, the ledger and the manifest
// are refused with journal.ErrLocked naming the file, and change no
// byte. Once the child is SIGKILLed the kernel has dropped its locks:
// the stack opens with no cleanup step and finishes the stream.
func TestKilledHolderFreesJournals(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test")
	}
	dir := t.TempDir()
	kill := stallChild(t, dir, "mid-charge")

	opens := map[string]func(path string) error{
		"feed.wal": func(path string) error {
			in, err := ingest.New(ingest.Config{Cx: tpCx, Cy: tpCy, Ct: tpCt, BatchSize: 8}, path)
			if err == nil {
				in.Close()
			}
			return err
		},
		"ledger": func(path string) error {
			led, err := dp.OpenLedger(path)
			if err == nil {
				led.Close()
			}
			return err
		},
		"manifest": func(path string) error {
			man, err := OpenManifest(path)
			if err == nil {
				man.Close()
			}
			return err
		},
	}
	for name, open := range opens {
		path := filepath.Join(dir, name)
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := open(path); !errors.Is(err, journal.ErrLocked) || !strings.Contains(err.Error(), path) {
			t.Errorf("opening %s while the child holds it: %v, want journal.ErrLocked naming it", name, err)
		}
		if after, err := os.ReadFile(path); err != nil || string(after) != string(before) {
			t.Errorf("the refused open changed %s (%v)", name, err)
		}
	}

	kill()
	s, cleanup, err := openCrashStack(dir, 0)
	if err != nil {
		t.Fatalf("opening the stack after SIGKILL: %v", err)
	}
	defer cleanup()
	if err := s.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := s.Status(); st.Published != pipeCrashWindows {
		t.Fatalf("recovered status: %+v", st)
	}
}
