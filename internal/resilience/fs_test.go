package resilience

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func tempFile(t *testing.T) *os.File {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "seam.bin"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestSeamNoInjector: without an injector the seam is a transparent
// pass-through — bytes land, sync succeeds.
func TestSeamNoInjector(t *testing.T) {
	f := tempFile(t)
	ctx := context.Background()
	if n, err := Write(ctx, f, []byte("hello")); n != 5 || err != nil {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if err := Sync(ctx, f); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(f.Name())
	if err != nil || string(got) != "hello" {
		t.Fatalf("file = %q, %v", got, err)
	}
}

// TestSeamWriteENOSPC: a disk-full hook fails the write with nothing
// persisted, and the error classifies as disk-full.
func TestSeamWriteENOSPC(t *testing.T) {
	f := tempFile(t)
	inj := NewInjector()
	inj.On(FaultWriteENOSPC, func(ctx context.Context, payload any) error {
		op := payload.(*WriteOp)
		if op.Len != 9 || !strings.HasSuffix(op.Path, "seam.bin") {
			t.Errorf("payload = %+v", op)
		}
		return fmt.Errorf("injected: %w", syscall.ENOSPC)
	})
	ctx := WithInjector(context.Background(), inj)
	n, err := Write(ctx, f, []byte("nine-byte"))
	if n != 0 || !IsDiskFull(err) {
		t.Fatalf("Write = %d, %v; want 0 bytes and a disk-full error", n, err)
	}
	if got, _ := os.ReadFile(f.Name()); len(got) != 0 {
		t.Fatalf("ENOSPC write persisted %d bytes", len(got))
	}
}

// TestSeamShortWrite: a short-write hook persists exactly the directed
// prefix — the torn record is really on disk, as a crash would leave it.
func TestSeamShortWrite(t *testing.T) {
	f := tempFile(t)
	inj := NewInjector()
	inj.On(FaultShortWrite, func(ctx context.Context, payload any) error {
		payload.(*WriteOp).Short = 3
		return fmt.Errorf("injected tear: %w", syscall.ENOSPC)
	})
	ctx := WithInjector(context.Background(), inj)
	n, err := Write(ctx, f, []byte("abcdef"))
	if n != 3 || !IsDiskFull(err) {
		t.Fatalf("Write = %d, %v; want 3 and disk-full", n, err)
	}
	if got, _ := os.ReadFile(f.Name()); string(got) != "abc" {
		t.Fatalf("torn prefix on disk = %q, want \"abc\"", got)
	}

	// Default tear (hook leaves Short at -1): half the record.
	f2 := tempFile(t)
	inj2 := NewInjector()
	inj2.On(FaultShortWrite, func(ctx context.Context, payload any) error {
		return errors.New("torn")
	})
	n, err = Write(WithInjector(context.Background(), inj2), f2, []byte("abcdef"))
	if n != 3 || err == nil {
		t.Fatalf("default tear: %d, %v", n, err)
	}
}

// TestSeamSyncEIO: a sync hook fails the fsync before the real one runs.
func TestSeamSyncEIO(t *testing.T) {
	f := tempFile(t)
	inj := NewInjector()
	inj.On(FaultSyncEIO, func(ctx context.Context, payload any) error {
		if !strings.HasSuffix(payload.(string), "seam.bin") {
			t.Errorf("payload = %v", payload)
		}
		return errors.New("EIO: injected")
	})
	ctx := WithInjector(context.Background(), inj)
	if _, err := Write(ctx, f, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := Sync(ctx, f); err == nil {
		t.Fatal("Sync survived an injected EIO")
	}
}

// TestAtomicWriteFileSeam: an injected ENOSPC inside an atomic write
// fails the whole write, leaves the destination untouched, and removes
// the temp file.
func TestAtomicWriteFileSeam(t *testing.T) {
	dir := t.TempDir()
	dst := filepath.Join(dir, "out.json")
	if err := os.WriteFile(dst, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, fault := range []Fault{FaultWriteENOSPC, FaultShortWrite, FaultSyncEIO} {
		inj := NewInjector()
		inj.On(fault, func(ctx context.Context, payload any) error {
			return fmt.Errorf("injected %s: %w", fault, syscall.ENOSPC)
		})
		ctx := WithInjector(context.Background(), inj)
		err := AtomicWriteFile(ctx, dst, 0o644, func(w io.Writer) error {
			_, werr := w.Write([]byte("new content"))
			return werr
		})
		if err == nil {
			t.Fatalf("%s: atomic write survived", fault)
		}
		if !IsDiskFull(err) {
			t.Fatalf("%s: error %v does not classify as disk-full", fault, err)
		}
		if errors.Is(err, ErrRenameNotDurable) {
			t.Fatalf("%s: a failure before the rename wraps ErrRenameNotDurable: %v", fault, err)
		}
		if got, _ := os.ReadFile(dst); string(got) != "old" {
			t.Fatalf("%s: destination clobbered: %q", fault, got)
		}
		left, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*"))
		if len(left) != 0 {
			t.Fatalf("%s: temp debris %v", fault, left)
		}
	}
}

// TestAtomicWriteFileDirSyncEIO: after the rename, AtomicWriteFile
// fsyncs the destination directory through the seam, after the temp
// file's own fsync. An EIO there fails the write — the rename may not
// survive a power cut, so no caller may act on it — with an error
// wrapping ErrRenameNotDurable, since the destination already holds the
// new content, and leaves no temp file behind.
func TestAtomicWriteFileDirSyncEIO(t *testing.T) {
	dir := t.TempDir()
	dst := filepath.Join(dir, "window.csv")
	if err := os.WriteFile(dst, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	var synced []string
	inj := NewInjector().On(FaultSyncEIO, func(_ context.Context, payload any) error {
		synced = append(synced, payload.(string))
		if payload.(string) == dir {
			return errors.New("EIO: injected")
		}
		return nil
	})
	err := AtomicWriteFile(WithInjector(context.Background(), inj), dst, 0o644, func(w io.Writer) error {
		_, werr := w.Write([]byte("new content"))
		return werr
	})
	if !errors.Is(err, ErrRenameNotDurable) {
		t.Fatalf("atomic write with an EIO on its directory fsync: %v, want ErrRenameNotDurable", err)
	}
	if got, _ := os.ReadFile(dst); string(got) != "new content" {
		t.Fatalf("destination after the rename = %q, want the new content", got)
	}
	if len(synced) != 2 || !strings.HasPrefix(filepath.Base(synced[0]), "window.csv.tmp-") || synced[1] != dir {
		t.Fatalf("fsyncs %q, want the temp file then %s", synced, dir)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(left) != 0 {
		t.Fatalf("temp debris %v", left)
	}
}

// TestAtomicWriteFileMode: the file AtomicWriteFile commits has the mode
// os.OpenFile gives a new file with the same perm (the umask applied),
// whatever mode the file it replaces had.
func TestAtomicWriteFileMode(t *testing.T) {
	dir := t.TempDir()
	for _, perm := range []os.FileMode{0o644, 0o600} {
		ref := filepath.Join(dir, fmt.Sprintf("ref-%o", perm))
		f, err := os.OpenFile(ref, os.O_RDWR|os.O_CREATE|os.O_EXCL, perm)
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		fi, err := os.Stat(ref)
		if err != nil {
			t.Fatal(err)
		}
		want := fi.Mode().Perm()
		dst := filepath.Join(dir, fmt.Sprintf("out-%o", perm))
		if err := os.WriteFile(dst, []byte("old"), 0o640); err != nil {
			t.Fatal(err)
		}
		if err := AtomicWriteFile(context.Background(), dst, perm, func(w io.Writer) error {
			_, werr := w.Write([]byte("new content"))
			return werr
		}); err != nil {
			t.Fatal(err)
		}
		if fi, err = os.Stat(dst); err != nil {
			t.Fatal(err)
		}
		if got := fi.Mode().Perm(); got != want {
			t.Errorf("perm %v: committed mode %v, want %v", perm, got, want)
		}
	}
}

// TestRetryBackoffDeterministic: the delay schedule is a pure function
// of the policy, and a Retry-After hint overrides it but stays capped.
func TestRetryBackoffDeterministic(t *testing.T) {
	p := Policy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 40 * time.Millisecond}
	for i, want := range map[int]time.Duration{
		1: 10 * time.Millisecond,
		2: 20 * time.Millisecond,
		3: 40 * time.Millisecond,
		4: 40 * time.Millisecond, // capped
	} {
		if got := p.DelayFor(i, 0, false); got != want {
			t.Errorf("DelayFor(%d) = %v, want %v", i, got, want)
		}
	}
	if got := p.DelayFor(1, 25*time.Millisecond, true); got != 25*time.Millisecond {
		t.Errorf("hinted delay = %v, want 25ms", got)
	}
	if got := p.DelayFor(1, time.Hour, true); got != 40*time.Millisecond {
		t.Errorf("hinted delay uncapped: %v", got)
	}
	// Zero BaseDelay keeps the historical immediate-retry behaviour.
	if got := (Policy{MaxAttempts: 3}).DelayFor(2, 0, false); got != 0 {
		t.Errorf("zero-policy delay = %v", got)
	}
}

// TestRetryHonorsRetryAfter: Retry sleeps the hinted delay between
// attempts and still converges on success.
func TestRetryHonorsRetryAfter(t *testing.T) {
	p := Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 50 * time.Millisecond}
	attempts := 0
	start := time.Now()
	err := Retry(context.Background(), p, func(attempt int, _ int64) error {
		attempts++
		if attempt < 2 {
			return MarkRetryAfter(errors.New("429"), 15*time.Millisecond)
		}
		return nil
	})
	if err != nil || attempts != 3 {
		t.Fatalf("err=%v attempts=%d", err, attempts)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("two hinted 15ms waits finished in %v", elapsed)
	}
	if d, ok := RetryAfterHint(MarkRetryAfter(errors.New("x"), time.Second)); !ok || d != time.Second {
		t.Fatalf("hint round-trip: %v %v", d, ok)
	}
	if !IsRetryable(MarkRetryAfter(errors.New("x"), time.Second)) {
		t.Fatal("MarkRetryAfter not retryable")
	}
}

// TestRetryBackoffCancelled: a context cancelled during the backoff wait
// aborts promptly with the context error.
func TestRetryBackoffCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{MaxAttempts: 3, BaseDelay: 10 * time.Second}
	calls := 0
	go func() { time.Sleep(20 * time.Millisecond); cancel() }()
	err := Retry(ctx, p, func(int, int64) error {
		calls++
		return MarkRetryable(errors.New("transient"))
	})
	if !errors.Is(err, context.Canceled) || calls != 1 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}
