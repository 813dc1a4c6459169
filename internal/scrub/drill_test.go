package scrub

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/grid"
	"repro/internal/resilience"
	"repro/internal/serve"
)

func drillMatrix(scale float64) *grid.Matrix {
	m := grid.NewMatrix(16, 16, 8)
	for i := 0; i < m.Len(); i++ {
		m.Data()[i] = scale * (float64((i*13)%97) + 0.5)
	}
	return m
}

func drillRetry() resilience.Policy {
	return resilience.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
}

func readyzStatus(t *testing.T, base string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var body map[string]any
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("readyz body %q: %v", raw, err)
	}
	return resp.StatusCode, body
}

// TestBitFlipDrill is the end-to-end self-healing chaos drill: a live
// leader+follower pair under query load, one flipped byte at a time.
//
//  1. A flip in a follower artifact is detected within one scrub pass
//     and self-heals byte-identically through the leader's catalog.
//  2. A flip in a leader artifact (no upstream to heal from) is
//     quarantined and latches /readyz as "corrupt", naming the artifact,
//     while the follower keeps serving untouched.
//  3. stpt-doctor's fsck+repair path restores the leader from the
//     healthy follower, and the next scrub pass clears the latch.
//
// Every repaired byte is compared against golden copies taken before any
// corruption, and the query load must never observe an error.
func TestBitFlipDrill(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(0xBADC0DE))

	// Leader: two file-backed releases.
	ldir := t.TempDir()
	var specs []serve.LoadSpec
	for i, name := range []string{"alpha", "beta"} {
		path := filepath.Join(ldir, name+".csv")
		if err := datasets.SaveMatrixCSVFile(ctx, path, drillMatrix(float64(i+1))); err != nil {
			t.Fatal(err)
		}
		specs = append(specs, serve.LoadSpec{Name: name, Path: path})
	}
	lstore := serve.NewStore()
	if err := lstore.LoadAll(specs); err != nil {
		t.Fatal(err)
	}
	lsrv := serve.New(ctx, lstore, serve.Config{})
	lts := httptest.NewServer(lsrv.Handler())
	defer lts.Close()
	lsc, err := New(Config{Targets: StoreTargets(lstore)})
	if err != nil {
		t.Fatal(err)
	}
	lsrv.SetIntegrity(lsc)

	// Follower: syncs from the leader, repairs through its catalog.
	fdir := t.TempDir()
	fstore := serve.NewStore()
	fl, err := serve.NewFollower(fstore, serve.FollowerConfig{
		Peer: lts.URL, Dir: fdir, Retry: drillRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fl.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	fsrv := serve.New(ctx, fstore, serve.Config{})
	fts := httptest.NewServer(fsrv.Handler())
	defer fts.Close()
	fsc, err := New(Config{
		Targets: StoreTargets(fstore),
		Repair: func(ctx context.Context, tg Target) error {
			return fl.RepairFile(ctx, tg.Path)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fsrv.SetIntegrity(fsc)

	// Golden copies of every at-rest artifact, taken before any fault.
	golden := map[string][]byte{}
	for _, st := range []*serve.Store{lstore, fstore} {
		rels, _ := st.Snapshot()
		for _, rel := range rels {
			raw, err := os.ReadFile(rel.Source.Path)
			if err != nil {
				t.Fatal(err)
			}
			golden[rel.Source.Path] = raw
		}
	}

	// Background query load against both daemons for the whole drill.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var loadErrs atomic.Int64
	for _, base := range []string{lts.URL, fts.URL} {
		wg.Add(1)
		go func(base string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(base + "/query?d=alpha&x0=0&x1=7&y0=0&y1=7&t0=0&t1=3")
				if err != nil {
					loadErrs.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					loadErrs.Add(1)
				}
			}
		}(base)
	}
	defer func() {
		close(stop)
		wg.Wait()
		if n := loadErrs.Load(); n != 0 {
			t.Errorf("query load observed %d errors during the drill", n)
		}
	}()

	flip := func(path string) {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[rng.Intn(len(raw))] ^= byte(1 << rng.Intn(8))
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Act 1: flip a byte in a random follower artifact. One pass must
	// detect it and self-heal byte-identically from the leader.
	frels, _ := fstore.Snapshot()
	fvictim := frels[rng.Intn(len(frels))].Source.Path
	flip(fvictim)
	if err := fsc.RunPass(ctx); err != nil {
		t.Fatal(err)
	}
	_, corrupt, repaired, quarantined := fsc.ScrubCounts()
	if corrupt != 1 || repaired != 1 || quarantined != 1 {
		t.Fatalf("follower counts after self-heal: corrupt=%d repaired=%d quarantined=%d", corrupt, repaired, quarantined)
	}
	if got := fsc.CorruptArtifacts(); len(got) != 0 {
		t.Fatalf("follower still latched after self-heal: %v", got)
	}
	if got, _ := os.ReadFile(fvictim); string(got) != string(golden[fvictim]) {
		t.Fatal("self-healed follower artifact is not byte-identical to golden")
	}
	if code, _ := readyzStatus(t, fts.URL); code != http.StatusOK {
		t.Fatalf("follower readyz %d after self-heal", code)
	}

	// Act 2: flip a byte in a random leader artifact. The leader has no
	// upstream: the pass quarantines the damage and latches /readyz.
	lrels, _ := lstore.Snapshot()
	lvictim := lrels[rng.Intn(len(lrels))].Source.Path
	flip(lvictim)
	if err := lsc.RunPass(ctx); err != nil {
		t.Fatal(err)
	}
	if got := lsc.CorruptArtifacts(); len(got) != 1 || got[0] != lvictim {
		t.Fatalf("leader latch: %v, want [%s]", got, lvictim)
	}
	if _, err := os.Lstat(lvictim); !os.IsNotExist(err) {
		t.Fatal("damaged leader artifact was not quarantined away")
	}
	code, body := readyzStatus(t, lts.URL)
	if code != http.StatusServiceUnavailable || body["status"] != "corrupt" || body["artifact"] != lvictim {
		t.Fatalf("leader readyz: %d %v", code, body)
	}
	if code, _ := readyzStatus(t, fts.URL); code != http.StatusOK {
		t.Fatalf("follower readyz %d while the leader is corrupt", code)
	}

	// Act 3: stpt-doctor. Fsck against the healthy follower plans a
	// refetch; Apply restores the leader's file byte-identically.
	dcfg := FsckConfig{Peer: fts.URL, DataDir: ldir, Retry: drillRetry()}
	rep, err := Fsck(ctx, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	f := findingByCode(rep, "replica-file-missing")
	if f == nil || f.Repair == nil || f.Repair.Kind != RepairRefetchFromPeer || f.Repair.Path != lvictim {
		t.Fatalf("doctor finding: %+v (all: %+v)", f, rep.Findings)
	}
	if applied, err := Apply(ctx, dcfg, rep); err != nil || applied != 1 {
		t.Fatalf("doctor apply: %d, %v", applied, err)
	}
	if got, _ := os.ReadFile(lvictim); string(got) != string(golden[lvictim]) {
		t.Fatal("doctor-repaired leader artifact is not byte-identical to golden")
	}

	// The next leader pass verifies the restored bytes and clears the
	// latch; readiness recovers.
	if err := lsc.RunPass(ctx); err != nil {
		t.Fatal(err)
	}
	if got := lsc.CorruptArtifacts(); len(got) != 0 {
		t.Fatalf("leader latch survived repair: %v", got)
	}
	if code, _ := readyzStatus(t, lts.URL); code != http.StatusOK {
		t.Fatalf("leader readyz %d after repair", code)
	}

	// Golden audit: every artifact on both replicas is exactly what it
	// was before the drill (quarantine evidence aside).
	for path, want := range golden {
		got, err := os.ReadFile(path)
		if err != nil || string(got) != string(want) {
			t.Fatalf("artifact %s diverged from golden after the drill (%v)", path, err)
		}
	}
}

// TestScrubMetricsServe: a serving daemon whose scrubber latched a
// corrupt release exports all five stpt_serve_scrub_* series on
// /metrics with the scrubber's counts.
func TestScrubMetricsServe(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "alpha.csv")
	if err := datasets.SaveMatrixCSVFile(ctx, path, drillMatrix(1)); err != nil {
		t.Fatal(err)
	}
	store := serve.NewStore()
	if err := store.LoadAll([]serve.LoadSpec{{Name: "alpha", Path: path}}); err != nil {
		t.Fatal(err)
	}
	srv := serve.New(ctx, store, serve.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	sc, err := New(Config{Targets: StoreTargets(store)})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetIntegrity(sc)
	flipByte(t, path, 10)
	if err := sc.RunPass(ctx); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"stpt_serve_scrub_passes_total 1\n",
		"stpt_serve_scrub_corrupt_found_total 1\n",
		"stpt_serve_scrub_repaired_total 0\n",
		"stpt_serve_scrub_quarantined_total 1\n",
		"stpt_serve_scrub_corrupt_artifacts 1\n",
	} {
		if !strings.Contains(string(body), "\n"+want) {
			t.Errorf("/metrics lacks the sample %q:\n%s", want, body)
		}
	}
}
