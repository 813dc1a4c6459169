package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/resilience"
)

// A Follower replicates a peer's published releases by anti-entropy:
// every Interval it fetches the peer's /catalog, downloads whatever it
// is missing with resumable, checksum-verified transfers, and installs
// the complete set through the store's all-or-nothing reload swap.
// Because releases are immutable artifacts named by content checksum,
// no write coordination is needed — a follower can never install a
// half-transferred or corrupted file, only refuse it and try again.
//
// Failure is the expected state, not the exception: a follower that
// cannot reach its peer (or keeps receiving bytes that fail
// verification) keeps serving its last good generation and reports how
// far behind it is; the moment a sync round succeeds it latches healthy
// again.
//
// The follower sees its peer through FetchCatalog and vouches for bytes
// through CheckCRC32C — the same fetch and the same check stpt-doctor's
// replica audit and the release scrubber use, so a file the follower
// would install is exactly a file the audit calls clean.
type Follower struct {
	store *Store
	cfg   FollowerConfig

	mu sync.Mutex
	st SyncStatus
}

// FollowerConfig tunes a Follower. Peer and Dir are required.
type FollowerConfig struct {
	// Peer is the base URL of the replica to sync from, e.g.
	// "http://10.0.0.1:8080" — typically the publishing leader, but any
	// up-to-date replica works; the catalog is self-certifying.
	Peer string
	// Dir is the local data directory releases are installed into.
	// Partial downloads live under Dir/.partial until verified.
	Dir string
	// Interval is the anti-entropy period. Default 2s.
	Interval time.Duration
	// Retry bounds each file fetch and catalog poll within one sync
	// round. Default: 4 attempts, 100ms base backoff, 2s cap, 30s
	// elapsed cap — a sync round always terminates so the next
	// anti-entropy tick is never starved.
	Retry resilience.Policy
	// HTTP is the transport; nil means http.DefaultClient.
	HTTP *http.Client
}

// SyncStatus is a follower's replication state, surfaced on /readyz and
// /metrics so both the gateway and an operator can see how stale a
// degraded replica is.
type SyncStatus struct {
	// Peer is the sync source URL.
	Peer string `json:"peer"`
	// PeerGeneration is the newest generation the peer has advertised.
	PeerGeneration uint64 `json:"peer_generation"`
	// SyncedGeneration is the peer generation currently installed
	// locally; it trails PeerGeneration while a sync is in flight or
	// failing.
	SyncedGeneration uint64 `json:"synced_generation"`
	// LastSync is when the last successful sync round finished.
	LastSync time.Time `json:"last_sync"`
	// LastAttempt is when the last sync round started.
	LastAttempt time.Time `json:"last_attempt"`
	// LastError is the last round's failure, or "" after a clean round.
	LastError string `json:"last_error,omitempty"`
	// BehindSince is when the follower first observed itself behind
	// (failed round or newer peer generation); zero while caught up.
	BehindSince time.Time `json:"-"`
	// FilesFetched counts release files downloaded and installed.
	FilesFetched uint64 `json:"files_fetched"`
	// CorruptRefused counts downloads refused because the bytes on disk
	// failed size/CRC verification — each one was deleted, never
	// installed, and re-fetched.
	CorruptRefused uint64 `json:"corrupt_refused"`
}

// Staleness reports how long the follower has been behind its peer: the
// degraded-mode signal. Zero means caught up as of the last round.
func (st SyncStatus) Staleness(now time.Time) time.Duration {
	if st.BehindSince.IsZero() {
		return 0
	}
	if d := now.Sub(st.BehindSince); d > 0 {
		return d
	}
	return 0
}

// FetchChunk is the FaultReplicaFetch payload: one chunk of a release
// download. Hooks may mutate Data in place to simulate a corrupted
// transfer — verification must catch it downstream.
type FetchChunk struct {
	Name   string // release being fetched
	Offset int64  // byte offset of this chunk within the file
	Data   []byte
}

// FollowerRetryPolicy is the default per-fetch retry schedule.
func FollowerRetryPolicy() resilience.Policy {
	return resilience.Policy{
		MaxAttempts: 4,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    2 * time.Second,
		MaxElapsed:  30 * time.Second,
	}
}

// NewFollower validates cfg, creates the data directories, and returns
// a follower ready to Run.
func NewFollower(store *Store, cfg FollowerConfig) (*Follower, error) {
	if cfg.Peer == "" {
		return nil, fmt.Errorf("serve: follower: no peer URL")
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("serve: follower: no data directory")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	if cfg.Retry.MaxAttempts == 0 {
		cfg.Retry = FollowerRetryPolicy()
	}
	if cfg.HTTP == nil {
		cfg.HTTP = http.DefaultClient
	}
	if err := os.MkdirAll(filepath.Join(cfg.Dir, ".partial"), 0o755); err != nil {
		return nil, fmt.Errorf("serve: follower: %w", err)
	}
	return &Follower{store: store, cfg: cfg, st: SyncStatus{Peer: cfg.Peer}}, nil
}

// Status returns a copy of the current replication state.
func (f *Follower) Status() SyncStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.st
}

// Run syncs once immediately, then every Interval until ctx ends. Sync
// failures are logged and reflected in Status but never stop the loop —
// anti-entropy means the next tick always tries again.
func (f *Follower) Run(ctx context.Context) error {
	tick := time.NewTicker(f.cfg.Interval)
	defer tick.Stop()
	for {
		if err := f.SyncOnce(ctx); err != nil && ctx.Err() == nil {
			fmt.Fprintf(os.Stderr, "serve: event=sync outcome=failed peer=%s error=%q\n", f.cfg.Peer, err.Error())
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// SyncOnce runs one full anti-entropy round: catalog fetch, per-file
// reconcile (download what is missing or mismatched, verify, install),
// and the atomic reload swap. On any failure the store is untouched and
// the follower keeps serving its previous generation.
func (f *Follower) SyncOnce(ctx context.Context) error {
	now := time.Now()
	f.mu.Lock()
	f.st.LastAttempt = now
	f.mu.Unlock()

	cat, err := FetchCatalog(ctx, f.cfg.HTTP, f.cfg.Peer, f.cfg.Retry)
	if err != nil {
		return f.markFailed(err)
	}
	f.mu.Lock()
	f.st.PeerGeneration = cat.Generation
	caughtUp := f.st.SyncedGeneration == cat.Generation && !f.st.LastSync.IsZero()
	f.mu.Unlock()
	if caughtUp {
		f.markSynced(cat.Generation)
		return nil
	}
	if len(cat.Files) == 0 {
		// An empty catalog is far more likely a misconfigured or
		// half-started peer than a deliberate "serve nothing": refusing
		// keeps a bad leader from wiping every replica in one tick.
		return f.markFailed(fmt.Errorf("serve: follower: peer %s advertises no releases; keeping generation %d",
			f.cfg.Peer, f.store.Generation()))
	}

	// Reconcile each catalog entry against the bytes actually on disk —
	// never against the serving store's remembered checksum. The store
	// hashed the file at load time; vouching from that memory would adopt
	// an installed file that has rotted since (bit flips do not announce
	// themselves), and the whole point of re-verifying is to catch
	// exactly that. Reconcile only runs when the follower is behind, so
	// the re-hash cost is off the steady-state path. A restarted follower
	// still re-adopts its old files for free: the disk hash matches.
	specs := make([]LoadSpec, 0, len(cat.Files))
	for _, cf := range cat.Files {
		dest := filepath.Join(f.cfg.Dir, cf.File)
		vouched, _ := fileMatches(dest, cf.Size, cf.CRC)
		if !vouched {
			if err := f.fetchFile(ctx, cf, dest); err != nil {
				return f.markFailed(err)
			}
		}
		specs = append(specs, LoadSpec{Name: cf.Name, Path: dest})
	}

	// The installed files parse back through the same all-or-nothing
	// swap a local reload uses; in-flight queries finish on the old
	// generation, new ones see the peer's.
	if err := f.store.LoadAll(specs); err != nil {
		return f.markFailed(fmt.Errorf("serve: follower: installing generation %d: %w", cat.Generation, err))
	}
	f.markSynced(cat.Generation)
	fmt.Fprintf(os.Stderr, "serve: event=sync outcome=ok peer=%s generation=%d datasets=%v\n",
		f.cfg.Peer, cat.Generation, f.store.Names())
	return nil
}

func (f *Follower) markFailed(err error) error {
	now := time.Now()
	f.mu.Lock()
	f.st.LastError = err.Error()
	if f.st.BehindSince.IsZero() {
		f.st.BehindSince = now
	}
	f.mu.Unlock()
	return err
}

func (f *Follower) markSynced(gen uint64) {
	now := time.Now()
	f.mu.Lock()
	f.st.SyncedGeneration = gen
	f.st.LastSync = now
	f.st.LastError = ""
	f.st.BehindSince = time.Time{}
	f.mu.Unlock()
}

// FetchCatalog GETs and validates peer's /catalog (a base URL such as
// "http://host:8080") under policy, reading at most 16 MiB. It is the
// one catalog fetch: a follower's sync round and file repair, and
// stpt-doctor's replica audit, all see the peer through it. A nil
// client means http.DefaultClient; a zero policy means
// FollowerRetryPolicy.
func FetchCatalog(ctx context.Context, client *http.Client, peer string, policy resilience.Policy) (Catalog, error) {
	if client == nil {
		client = http.DefaultClient
	}
	if policy.MaxAttempts == 0 {
		policy = FollowerRetryPolicy()
	}
	op := "serve: catalog from " + peer
	var raw []byte
	_, err := resilience.RetryHTTP(ctx, client, policy, op,
		func(ctx context.Context) (*http.Request, error) {
			return http.NewRequestWithContext(ctx, http.MethodGet, peer+"/catalog", nil)
		},
		func(resp *http.Response) error {
			if resp.StatusCode != http.StatusOK {
				return resilience.StatusError(resp, op)
			}
			b, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
			if err != nil {
				return resilience.MarkRetryable(fmt.Errorf("%s: reading body: %w", op, err))
			}
			resp.Body.Close()
			raw = b
			return nil
		})
	if err != nil {
		return Catalog{}, err
	}
	return DecodeCatalog(raw)
}

// fetchFile downloads one release file into the partial area, verifies
// its bytes against the catalog entry, and atomically renames it to
// dest. Interrupted transfers resume from the partial file's size via a
// Range request; corrupted transfers are deleted and re-fetched from
// scratch — a file that fails verification is never installed.
func (f *Follower) fetchFile(ctx context.Context, cf CatalogFile, dest string) error {
	partial := filepath.Join(f.cfg.Dir, ".partial", cf.File+".partial")
	op := fmt.Sprintf("serve: follower: fetching %s from %s", cf.Name, f.cfg.Peer)
	resp, err := resilience.RetryHTTP(ctx, f.cfg.HTTP, f.cfg.Retry, op,
		func(ctx context.Context) (*http.Request, error) {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet,
				f.cfg.Peer+"/catalog/file?d="+url.QueryEscape(cf.Name), nil)
			if err != nil {
				return nil, err
			}
			if off := partialSize(partial); off > 0 && off < cf.Size {
				req.Header.Set("Range", fmt.Sprintf("bytes=%d-", off))
			} else if off >= cf.Size && off > 0 {
				// Overlong partial: a previous life downloaded a
				// different (or corrupt) byte stream. Start over.
				os.Remove(partial)
			}
			return req, nil
		},
		func(resp *http.Response) error {
			var start int64
			switch resp.StatusCode {
			case http.StatusOK:
				start = 0
			case http.StatusPartialContent:
				start = partialSize(partial)
			case http.StatusRequestedRangeNotSatisfiable:
				os.Remove(partial)
				return resilience.MarkRetryable(fmt.Errorf("%s: range not satisfiable; restarting transfer", op))
			default:
				return resilience.StatusError(resp, op)
			}
			if err := f.copyBody(ctx, cf, partial, resp.Body, start); err != nil {
				return err
			}
			// Verify what actually landed on disk, not what flowed
			// through memory: the partial is re-read and re-hashed.
			ok, err := fileMatches(partial, cf.Size, cf.CRC)
			if err != nil {
				return err
			}
			if !ok {
				os.Remove(partial)
				f.mu.Lock()
				f.st.CorruptRefused++
				f.mu.Unlock()
				fmt.Fprintf(os.Stderr, "serve: event=fetch outcome=refused release=%s reason=checksum-mismatch\n", cf.Name)
				return resilience.MarkRetryable(fmt.Errorf("%s: bytes failed verification (want %d bytes crc32c %08x); refusing install and re-fetching",
					op, cf.Size, cf.CRC))
			}
			if err := os.Rename(partial, dest); err != nil {
				return fmt.Errorf("%s: installing: %w", op, err)
			}
			f.mu.Lock()
			f.st.FilesFetched++
			f.mu.Unlock()
			return nil
		})
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// copyBody streams a response body into the partial file starting at
// start (0 truncates; otherwise the bytes are appended at exactly that
// offset), firing FaultReplicaFetch per chunk and fsyncing before
// return so a resumed attempt can trust the partial's size.
func (f *Follower) copyBody(ctx context.Context, cf CatalogFile, partial string, body io.Reader, start int64) error {
	flags := os.O_CREATE | os.O_WRONLY
	if start == 0 {
		flags |= os.O_TRUNC
	}
	w, err := os.OpenFile(partial, flags, 0o644)
	if err != nil {
		return fmt.Errorf("serve: follower: partial for %s: %w", cf.Name, err)
	}
	defer w.Close()
	if start > 0 {
		if _, err := w.Seek(start, io.SeekStart); err != nil {
			return fmt.Errorf("serve: follower: partial for %s: %w", cf.Name, err)
		}
	}
	buf := make([]byte, 64<<10)
	off := start
	for {
		n, rerr := body.Read(buf)
		if n > 0 {
			chunk := &FetchChunk{Name: cf.Name, Offset: off, Data: buf[:n]}
			if err := resilience.Fire(ctx, resilience.FaultReplicaFetch, chunk); err != nil {
				// A mid-transfer failure: the durable prefix stays and
				// the next attempt resumes past it.
				return resilience.MarkRetryable(fmt.Errorf("serve: follower: fetching %s: %w", cf.Name, err))
			}
			if _, err := w.Write(chunk.Data); err != nil {
				return fmt.Errorf("serve: follower: writing partial for %s: %w", cf.Name, err)
			}
			off += int64(n)
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			w.Sync()
			return resilience.MarkRetryable(fmt.Errorf("serve: follower: fetching %s: transfer interrupted: %w", cf.Name, rerr))
		}
	}
	if err := w.Sync(); err != nil {
		return fmt.Errorf("serve: follower: syncing partial for %s: %w", cf.Name, err)
	}
	return nil
}

// RepairFile re-fetches the artifact at path from the peer's catalog
// through the same verified transfer a sync uses (Range resume, CRC
// check over the on-disk bytes, atomic rename) — the replica-assisted
// repair the integrity scrubber and stpt-doctor invoke after
// quarantining a damaged file. The peer must still advertise the file;
// one it no longer carries cannot be repaired from this peer.
func (f *Follower) RepairFile(ctx context.Context, path string) error {
	if err := resilience.Fire(ctx, resilience.FaultRepairFetch, path); err != nil {
		return fmt.Errorf("serve: follower: repairing %s: %w", path, err)
	}
	cat, err := FetchCatalog(ctx, f.cfg.HTTP, f.cfg.Peer, f.cfg.Retry)
	if err != nil {
		return fmt.Errorf("serve: follower: repairing %s: %w", path, err)
	}
	base := filepath.Base(path)
	for _, cf := range cat.Files {
		if cf.File != base {
			continue
		}
		dest := filepath.Join(f.cfg.Dir, cf.File)
		if err := f.fetchFile(ctx, cf, dest); err != nil {
			return fmt.Errorf("serve: follower: repairing %s: %w", path, err)
		}
		fmt.Fprintf(os.Stderr, "serve: event=repair outcome=ok file=%s peer=%s\n", cf.File, f.cfg.Peer)
		return nil
	}
	return fmt.Errorf("serve: follower: repairing %s: peer %s no longer advertises it", path, f.cfg.Peer)
}

// partialSize returns the partial file's current size, or 0.
func partialSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// fileMatches re-reads path and reports whether its bytes pass
// CheckCRC32C. A missing file is simply no match; any other read error
// is surfaced.
func fileMatches(path string, size int64, crc uint32) (bool, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return CheckCRC32C(raw, size, crc) == nil, nil
}
