package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/resilience"
)

// bigMatrix is large enough that its CSV spans several 64KiB fetch
// chunks, so resume and corruption tests exercise multi-chunk transfers.
func bigMatrix() *grid.Matrix {
	m := grid.NewMatrix(32, 32, 24)
	for i := 0; i < m.Len(); i++ {
		m.Data()[i] = float64((i*7)%101) + 0.25
	}
	return m
}

// leaderHarness is an httptest leader whose handler can be partitioned
// (connections dropped) and which counts file-fetch requests and Range
// resumes.
type leaderHarness struct {
	srv          *Server
	ts           *httptest.Server
	store        *Store
	partitioned  atomic.Bool
	fileFetches  atomic.Int64
	rangeFetches atomic.Int64
}

// newLeader loads the given matrices as file-backed releases and serves
// them. Returns the harness; h.ts.URL is the peer URL followers sync from.
func newLeader(t *testing.T, ctx context.Context, rels map[string]*grid.Matrix) *leaderHarness {
	t.Helper()
	dir := t.TempDir()
	specs := make([]LoadSpec, 0, len(rels))
	for name, m := range rels {
		path := filepath.Join(dir, name+".csv")
		writeRelease(t, path, m)
		specs = append(specs, LoadSpec{Name: name, Path: path})
	}
	store := NewStore()
	if err := store.LoadAll(specs); err != nil {
		t.Fatalf("leader LoadAll: %v", err)
	}
	h := &leaderHarness{store: store}
	h.srv = New(ctx, store, Config{})
	inner := h.srv.Handler()
	h.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h.partitioned.Load() {
			// Drop the connection without a response: the partition case,
			// not the clean-error case.
			hj, ok := w.(http.Hijacker)
			if !ok {
				panic("test server does not support hijack")
			}
			conn, _, err := hj.Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		if r.URL.Path == "/catalog/file" {
			h.fileFetches.Add(1)
			if r.Header.Get("Range") != "" {
				h.rangeFetches.Add(1)
			}
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(h.ts.Close)
	return h
}

func newFollowerHarness(t *testing.T, leader *leaderHarness, ctx context.Context) (*Follower, *Store, string) {
	t.Helper()
	dir := t.TempDir()
	store := NewStore()
	f, err := NewFollower(store, FollowerConfig{
		Peer: leader.ts.URL,
		Dir:  dir,
		// One attempt per round by default: tests that want retries
		// override via injector-driven paths below.
		Retry: resilience.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("NewFollower: %v", err)
	}
	return f, store, dir
}

// fileCRC32C hashes a file the way the catalog does.
func fileCRC32C(t *testing.T, path string) (int64, uint32) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return int64(len(b)), crc32.Checksum(b, castagnoli)
}

// TestCatalogDescribesServingSet: /catalog advertises exactly the
// serving releases with the true on-disk sizes and CRCs, and the
// generation id of the same snapshot.
func TestCatalogDescribesServingSet(t *testing.T) {
	leader := newLeader(t, context.Background(), map[string]*grid.Matrix{
		"alpha": testMatrix(), "beta": scaledMatrix(2),
	})
	status, body := get(t, leader.ts.URL+"/catalog")
	if status != http.StatusOK {
		t.Fatalf("/catalog: status %d body %s", status, body)
	}
	cat, err := DecodeCatalog(body)
	if err != nil {
		t.Fatalf("decoding own catalog: %v", err)
	}
	if cat.Generation != leader.store.Generation() {
		t.Fatalf("catalog generation %d, store %d", cat.Generation, leader.store.Generation())
	}
	if len(cat.Files) != 2 {
		t.Fatalf("catalog has %d files, want 2: %+v", len(cat.Files), cat.Files)
	}
	for _, cf := range cat.Files {
		rel, err := leader.store.Get(cf.Name)
		if err != nil {
			t.Fatalf("catalog names unknown release %q", cf.Name)
		}
		size, crc := fileCRC32C(t, rel.Source.Path)
		if cf.Size != size || cf.CRC != crc {
			t.Fatalf("release %q: catalog says %d/%08x, file is %d/%08x", cf.Name, cf.Size, cf.CRC, size, crc)
		}
	}
}

// TestCatalogFileRangeResume: /catalog/file honours Range requests, the
// mechanism resumable downloads are built on.
func TestCatalogFileRangeResume(t *testing.T) {
	leader := newLeader(t, context.Background(), map[string]*grid.Matrix{"rel": testMatrix()})
	_, full := get(t, leader.ts.URL+"/catalog/file?d=rel")

	req, _ := http.NewRequest(http.MethodGet, leader.ts.URL+"/catalog/file?d=rel", nil)
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-", len(full)/2))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("ranged fetch: status %d, want 206", resp.StatusCode)
	}
	var got []byte
	buf := make([]byte, 4096)
	for {
		n, rerr := resp.Body.Read(buf)
		got = append(got, buf[:n]...)
		if rerr != nil {
			break
		}
	}
	if want := full[len(full)/2:]; string(got) != string(want) {
		t.Fatalf("ranged fetch returned %d bytes, want the %d-byte suffix", len(got), len(want))
	}

	if status, _ := get(t, leader.ts.URL+"/catalog/file?d=nope"); status != http.StatusNotFound {
		t.Fatalf("unknown release: status %d, want 404", status)
	}
}

// TestDecodeCatalogRejects: the decoder refuses every malformed document
// a hostile or corrupted peer could send.
func TestDecodeCatalogRejects(t *testing.T) {
	cases := map[string]string{
		"not json":       `{"generation":`,
		"unknown field":  `{"generation":1,"files":[],"extra":true}`,
		"trailing data":  `{"generation":1,"files":[]}{"generation":2}`,
		"empty name":     `{"generation":1,"files":[{"name":"","file":"a.csv","size":1,"crc32c":1}]}`,
		"path traversal": `{"generation":1,"files":[{"name":"a","file":"../../etc/passwd","size":1,"crc32c":1}]}`,
		"dot dir":        `{"generation":1,"files":[{"name":"a","file":"..","size":1,"crc32c":1}]}`,
		"separator":      `{"generation":1,"files":[{"name":"a","file":"x/y.csv","size":1,"crc32c":1}]}`,
		"negative size":  `{"generation":1,"files":[{"name":"a","file":"a.csv","size":-1,"crc32c":1}]}`,
		// Grid hints only parameterise raw household loads, which no
		// replica serves; a catalog carrying them is refused.
		"grid hint":      `{"generation":1,"files":[{"name":"a","file":"a.csv","size":1,"crc32c":1,"cx":4,"cy":2}]}`,
		"duplicate name": `{"generation":1,"files":[{"name":"a","file":"a.csv","size":1,"crc32c":1},{"name":"a","file":"b.csv","size":1,"crc32c":1}]}`,
		"duplicate file": `{"generation":1,"files":[{"name":"a","file":"a.csv","size":1,"crc32c":1},{"name":"b","file":"a.csv","size":1,"crc32c":1}]}`,
	}
	for label, raw := range cases {
		if _, err := DecodeCatalog([]byte(raw)); err == nil {
			t.Errorf("%s: decoded without error", label)
		}
	}
	good := `{"generation":7,"files":[{"name":"a","file":"a.csv","size":10,"crc32c":123}]}`
	cat, err := DecodeCatalog([]byte(good))
	if err != nil {
		t.Fatalf("valid catalog refused: %v", err)
	}
	if cat.Generation != 7 || len(cat.Files) != 1 || cat.Files[0].Size != 10 || cat.Files[0].CRC != 123 {
		t.Fatalf("valid catalog mangled: %+v", cat)
	}
}

// TestFollowerSyncsFromLeader: the headline anti-entropy property — an
// empty follower converges to the leader's generation with byte-identical
// files and identical query answers.
func TestFollowerSyncsFromLeader(t *testing.T) {
	leader := newLeader(t, context.Background(), map[string]*grid.Matrix{
		"alpha": testMatrix(), "beta": bigMatrix(),
	})
	f, fstore, dir := newFollowerHarness(t, leader, context.Background())

	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatalf("SyncOnce: %v", err)
	}
	st := f.Status()
	if st.SyncedGeneration != leader.store.Generation() {
		t.Fatalf("synced generation %d, leader %d", st.SyncedGeneration, leader.store.Generation())
	}
	if st.Staleness(time.Now()) != 0 || st.LastError != "" {
		t.Fatalf("status after clean sync: %+v", st)
	}
	// Files on disk byte-identical to the leader's.
	lrels, _ := leader.store.Snapshot()
	for _, rel := range lrels {
		size, crc := fileCRC32C(t, filepath.Join(dir, filepath.Base(rel.Source.Path)))
		if size != rel.Source.Size || crc != rel.Source.CRC {
			t.Fatalf("release %q: follower file %d/%08x, leader %d/%08x",
				rel.Name, size, crc, rel.Source.Size, rel.Source.CRC)
		}
	}
	// Identical answers: same query, same sum, on both stores.
	q := grid.Query{X0: 1, X1: 20, Y0: 0, Y1: 17, T0: 2, T1: 19}
	lrel, _ := leader.store.Get("beta")
	frel, err := fstore.Get("beta")
	if err != nil {
		t.Fatalf("follower store: %v", err)
	}
	if l, fo := lrel.Index.RangeSum(q), frel.Index.RangeSum(q); l != fo {
		t.Fatalf("divergent answers: leader %g follower %g", l, fo)
	}

	// A second round with nothing new is a no-op: no file fetches.
	before := leader.fileFetches.Load()
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatalf("steady-state SyncOnce: %v", err)
	}
	if got := leader.fileFetches.Load(); got != before {
		t.Fatalf("steady-state sync fetched %d files, want 0", got-before)
	}
}

// TestFollowerPicksUpNewGeneration: after the leader reloads new data,
// the next anti-entropy round installs it.
func TestFollowerPicksUpNewGeneration(t *testing.T) {
	leader := newLeader(t, context.Background(), map[string]*grid.Matrix{"rel": testMatrix()})
	f, fstore, _ := newFollowerHarness(t, leader, context.Background())
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatalf("initial sync: %v", err)
	}

	rels, _ := leader.store.Snapshot()
	writeRelease(t, rels[0].Source.Path, scaledMatrix(5))
	if err := leader.store.Reload(); err != nil {
		t.Fatalf("leader reload: %v", err)
	}
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatalf("second sync: %v", err)
	}
	frel, err := fstore.Get("rel")
	if err != nil {
		t.Fatal(err)
	}
	if want := scaledMatrix(5).Total(); frel.Matrix.Total() != want {
		t.Fatalf("follower total %g after leader update, want %g", frel.Matrix.Total(), want)
	}
	if st := f.Status(); st.SyncedGeneration != leader.store.Generation() {
		t.Fatalf("synced generation %d, leader %d", st.SyncedGeneration, leader.store.Generation())
	}
}

// TestFollowerRefusesCorruptTransfer: a byte flipped mid-transfer must
// never be installed — the checksum refuses it, the fetch retries, and
// the follower converges on the true bytes.
func TestFollowerRefusesCorruptTransfer(t *testing.T) {
	var corrupted atomic.Int64
	in := resilience.NewInjector().On(resilience.FaultReplicaFetch, func(ctx context.Context, payload any) error {
		chunk := payload.(*FetchChunk)
		// Poison the first chunk of the first transfer only; later
		// attempts flow clean so the fetch can converge.
		if corrupted.CompareAndSwap(0, 1) && len(chunk.Data) > 0 {
			chunk.Data[0] ^= 0xFF
		}
		return nil
	})
	ctx := resilience.WithInjector(context.Background(), in)

	leader := newLeader(t, context.Background(), map[string]*grid.Matrix{"rel": bigMatrix()})
	f, fstore, dir := newFollowerHarness(t, leader, ctx)

	if err := f.SyncOnce(ctx); err != nil {
		t.Fatalf("SyncOnce with corruption: %v", err)
	}
	st := f.Status()
	if st.CorruptRefused == 0 {
		t.Fatal("corrupted transfer was never refused — verification did not fire")
	}
	rels, _ := leader.store.Snapshot()
	size, crc := fileCRC32C(t, filepath.Join(dir, filepath.Base(rels[0].Source.Path)))
	if size != rels[0].Source.Size || crc != rels[0].Source.CRC {
		t.Fatalf("installed file %d/%08x does not match leader %d/%08x",
			size, crc, rels[0].Source.Size, rels[0].Source.CRC)
	}
	if fstore.Len() != 1 {
		t.Fatalf("follower serving %d releases, want 1", fstore.Len())
	}
	// Nothing left behind in the partial area.
	leftover, _ := os.ReadDir(filepath.Join(dir, ".partial"))
	if len(leftover) != 0 {
		t.Fatalf("partial dir not cleaned: %v", leftover)
	}
}

// TestFollowerResumesInterruptedTransfer: a transfer that dies mid-body
// resumes from the durable prefix with a Range request instead of
// refetching from zero.
func TestFollowerResumesInterruptedTransfer(t *testing.T) {
	var failed atomic.Bool
	in := resilience.NewInjector().On(resilience.FaultReplicaFetch, func(ctx context.Context, payload any) error {
		chunk := payload.(*FetchChunk)
		// Kill the connection once, after at least one chunk landed.
		if chunk.Offset > 0 && failed.CompareAndSwap(false, true) {
			return fmt.Errorf("injected mid-transfer failure at offset %d", chunk.Offset)
		}
		return nil
	})
	ctx := resilience.WithInjector(context.Background(), in)

	leader := newLeader(t, context.Background(), map[string]*grid.Matrix{"rel": bigMatrix()})
	f, _, dir := newFollowerHarness(t, leader, ctx)

	if err := f.SyncOnce(ctx); err != nil {
		t.Fatalf("SyncOnce with interruption: %v", err)
	}
	if !failed.Load() {
		t.Fatal("fault hook never fired — file too small to exercise resume?")
	}
	if leader.rangeFetches.Load() == 0 {
		t.Fatal("no Range request observed: the retry refetched from zero instead of resuming")
	}
	rels, _ := leader.store.Snapshot()
	size, crc := fileCRC32C(t, filepath.Join(dir, filepath.Base(rels[0].Source.Path)))
	if size != rels[0].Source.Size || crc != rels[0].Source.CRC {
		t.Fatalf("resumed file %d/%08x does not match leader %d/%08x",
			size, crc, rels[0].Source.Size, rels[0].Source.CRC)
	}
}

// TestFollowerRestartAdoptsDiskFiles: a restarted follower (fresh store,
// same data dir) re-verifies its files by checksum and serves without
// downloading anything.
func TestFollowerRestartAdoptsDiskFiles(t *testing.T) {
	leader := newLeader(t, context.Background(), map[string]*grid.Matrix{"rel": testMatrix()})
	f1, _, dir := newFollowerHarness(t, leader, context.Background())
	if err := f1.SyncOnce(context.Background()); err != nil {
		t.Fatalf("first life: %v", err)
	}

	before := leader.fileFetches.Load()
	store2 := NewStore()
	f2, err := NewFollower(store2, FollowerConfig{Peer: leader.ts.URL, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := f2.SyncOnce(context.Background()); err != nil {
		t.Fatalf("second life: %v", err)
	}
	if got := leader.fileFetches.Load(); got != before {
		t.Fatalf("restart refetched %d files; want 0 (disk adoption)", got-before)
	}
	if store2.Len() != 1 {
		t.Fatalf("restarted follower serving %d releases, want 1", store2.Len())
	}
}

// TestFollowerDegradedMode: a partitioned follower keeps serving its
// last good generation, reports degraded status with growing staleness
// and the X-STPT-Staleness header, and latches healthy the moment
// anti-entropy reaches the peer again.
func TestFollowerDegradedMode(t *testing.T) {
	leader := newLeader(t, context.Background(), map[string]*grid.Matrix{"rel": testMatrix()})
	f, fstore, _ := newFollowerHarness(t, leader, context.Background())
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatalf("initial sync: %v", err)
	}

	fsrv := New(context.Background(), fstore, Config{})
	fsrv.SetFollower(f)
	fts := httptest.NewServer(fsrv.Handler())
	defer fts.Close()

	readyz := func() (int, map[string]any) {
		t.Helper()
		status, body := get(t, fts.URL+"/readyz")
		var m map[string]any
		if len(body) > 0 {
			json.Unmarshal(body, &m)
		}
		return status, m
	}

	// Healthy: ready, staleness 0 on the header.
	if status, m := readyz(); status != http.StatusOK || m["status"] != "ready" {
		t.Fatalf("healthy follower readyz: %d %v", status, m)
	}

	// Partition the leader: syncs fail, serving must not.
	leader.partitioned.Store(true)
	if err := f.SyncOnce(context.Background()); err == nil {
		t.Fatal("sync through a partition succeeded")
	}
	status, m := readyz()
	if status != http.StatusOK {
		t.Fatalf("degraded follower went unready: %d %v — degraded must keep serving", status, m)
	}
	if m["status"] != "degraded" {
		t.Fatalf("readyz status %v, want degraded", m["status"])
	}
	if s, _ := m["staleness_seconds"].(float64); s <= 0 {
		t.Fatalf("staleness_seconds %v, want > 0", m["staleness_seconds"])
	}
	if got := querySum(t, fts.URL); got != testMatrix().Total() {
		t.Fatalf("degraded query sum %g, want %g", got, testMatrix().Total())
	}
	// The header has millisecond resolution; let a little staleness accrue.
	time.Sleep(5 * time.Millisecond)
	resp, err := http.Get(queryURL(fts.URL, grid.Query{X1: 1, Y1: 1, T1: 1}, ""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	stale, err := strconv.ParseFloat(resp.Header.Get(StalenessHeader), 64)
	if err != nil || stale <= 0 {
		t.Fatalf("%s header %q, want a positive number", StalenessHeader, resp.Header.Get(StalenessHeader))
	}

	// Heal the partition: the next round latches healthy again.
	leader.partitioned.Store(false)
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatalf("sync after heal: %v", err)
	}
	if status, m := readyz(); status != http.StatusOK || m["status"] != "ready" {
		t.Fatalf("healed follower readyz: %d %v", status, m)
	}
	resp, err = http.Get(queryURL(fts.URL, grid.Query{X1: 1, Y1: 1, T1: 1}, ""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h := resp.Header.Get(StalenessHeader); h != "0.000" {
		t.Fatalf("healed %s header %q, want 0.000", StalenessHeader, h)
	}
}

// TestFollowerAwaitingFirstSync: a follower that has never synced is not
// ready — it has nothing to answer with — and says why.
func TestFollowerAwaitingFirstSync(t *testing.T) {
	leader := newLeader(t, context.Background(), map[string]*grid.Matrix{"rel": testMatrix()})
	f, fstore, _ := newFollowerHarness(t, leader, context.Background())
	fsrv := New(context.Background(), fstore, Config{})
	fsrv.SetFollower(f)
	fts := httptest.NewServer(fsrv.Handler())
	defer fts.Close()

	status, body := get(t, fts.URL+"/readyz")
	if status != http.StatusServiceUnavailable || !strings.Contains(string(body), "awaiting first sync") {
		t.Fatalf("empty follower readyz: %d %s; want 503 awaiting first sync", status, body)
	}
}

// TestFollowerRefusesEmptyCatalog: a peer advertising nothing must not
// wipe a follower that is serving data.
func TestFollowerRefusesEmptyCatalog(t *testing.T) {
	leader := newLeader(t, context.Background(), map[string]*grid.Matrix{"rel": testMatrix()})
	f, fstore, _ := newFollowerHarness(t, leader, context.Background())
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatalf("initial sync: %v", err)
	}

	empty := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"generation":99,"files":[]}`))
	}))
	defer empty.Close()
	f2, err := NewFollower(fstore, FollowerConfig{Peer: empty.URL, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := f2.SyncOnce(context.Background()); err == nil {
		t.Fatal("sync against an empty catalog succeeded; should refuse")
	}
	if fstore.Len() != 1 {
		t.Fatalf("empty catalog wiped the store: %d releases left", fstore.Len())
	}
}

// TestServeMetricsEndpoint: /metrics speaks Prometheus text format and
// carries the serving and replication gauges.
func TestServeMetricsEndpoint(t *testing.T) {
	leader := newLeader(t, context.Background(), map[string]*grid.Matrix{"rel": testMatrix()})
	querySum(t, leader.ts.URL) // generate one request to count

	status, body := get(t, leader.ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics: status %d", status)
	}
	for _, want := range []string{
		"stpt_serve_requests_total{code=\"200\"}",
		"stpt_serve_request_seconds_bucket",
		"stpt_serve_generation 1",
		"stpt_serve_sync_staleness_seconds 0",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestServeRequestID: every response carries an X-Request-ID, and an
// inbound one is propagated.
func TestServeRequestID(t *testing.T) {
	leader := newLeader(t, context.Background(), map[string]*grid.Matrix{"rel": testMatrix()})
	resp, err := http.Get(leader.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-ID") == "" {
		t.Fatal("response without X-Request-ID")
	}

	req, _ := http.NewRequest(http.MethodGet, leader.ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "gw-abc123")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "gw-abc123" {
		t.Fatalf("inbound request id not propagated: got %q", got)
	}
}
