package serve

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/datasets"
	"repro/internal/grid"
)

// Release is one published matrix the server answers queries against.
// The tiled range-sum index is built once at load time; after that every
// query is O(1) — tile-aligned blocks from the coarse table, everything
// else from the full summed-volume table — and the matrix itself is never
// written again, so concurrent readers need no locking.
type Release struct {
	Name   string
	Matrix *grid.Matrix
	Index  *grid.TileIndex
	// Source describes the file this release was loaded from — the
	// exact bytes, not whatever is on disk now — so the /catalog a
	// follower syncs against always matches the data actually serving.
	// Nil for releases registered programmatically via Add.
	Source *ReleaseSource
}

// ReleaseSource records a spec-loaded release's provenance: the path it
// came from and the size and CRC-32C of the bytes that were parsed into
// the serving matrix. Followers compare these against their own files
// during anti-entropy, and verify fetched bytes against CRC before a
// download may be installed.
type ReleaseSource struct {
	Path string
	Size int64
	CRC  uint32 // CRC-32C (Castagnoli) over the file bytes as loaded
}

// releaseSet is one immutable generation of loaded releases. Readers
// grab the whole set with a single atomic load and keep using it for
// the rest of their request, so a concurrent swap can never show them a
// half-updated view; the old generation lives until its last in-flight
// query returns it to the garbage collector.
type releaseSet struct {
	rel   map[string]*Release
	names []string // sorted
	// gen is the monotonically increasing generation id assigned when
	// this set was published. Operators correlate it across logs: a
	// failed reload reports the generation that stayed live, so "which
	// data is actually serving right now" is answerable from stderr
	// alone.
	gen uint64
}

func newReleaseSet(rel map[string]*Release) *releaseSet {
	names := make([]string, 0, len(rel))
	for n := range rel {
		names = append(names, n)
	}
	sort.Strings(names)
	return &releaseSet{rel: rel, names: names}
}

// Store holds the current release set behind an atomic pointer. Reads
// (every query) are lock-free; writers — Add and Reload — serialise on
// a mutex, build a complete replacement set off to the side, and swap
// it in with one pointer store. That swap is the zero-downtime reload:
// in-flight queries finish on the snapshot they already loaded while
// new requests see the new generation.
type Store struct {
	mu     sync.Mutex // serialises writers; readers never take it
	cur    atomic.Pointer[releaseSet]
	specs  []LoadSpec // the configured load set, re-read by Reload
	genSeq uint64     // last assigned generation id; guarded by mu
}

// NewStore returns an empty store. The empty set is generation 0; every
// successful publish — Add, LoadAll, Reload — bumps the generation.
func NewStore() *Store {
	s := &Store{}
	s.cur.Store(newReleaseSet(map[string]*Release{}))
	return s
}

// publishLocked assigns the next generation id and swaps the set in.
// Callers hold s.mu, so the ids a reader observes are monotonic.
func (s *Store) publishLocked(set *releaseSet) {
	s.genSeq++
	set.gen = s.genSeq
	s.cur.Store(set)
}

// Generation returns the id of the currently serving release set: 0 for
// the initial empty set, then one per successful swap. A failed Reload
// leaves it unchanged — the number names the data still answering
// queries.
func (s *Store) Generation() uint64 { return s.cur.Load().gen }

// Add indexes a matrix and registers it under name, replacing any
// previous release with that name. Releases added this way are not part
// of the Reload spec set — a later Reload rebuilds from the configured
// specs only.
func (s *Store) Add(name string, m *grid.Matrix) *Release {
	r := &Release{Name: name, Matrix: m, Index: grid.NewTileIndex(m)}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.cur.Load()
	next := make(map[string]*Release, len(cur.rel)+1)
	for k, v := range cur.rel {
		next[k] = v
	}
	next[name] = r
	s.publishLocked(newReleaseSet(next))
	return r
}

// Get looks a release up by name in the current generation. The empty
// name resolves when exactly one release is loaded — the common
// single-matrix deployment — and is ambiguous otherwise.
func (s *Store) Get(name string) (*Release, error) {
	set := s.cur.Load()
	if name == "" {
		if len(set.rel) == 1 {
			return set.rel[set.names[0]], nil
		}
		return nil, fmt.Errorf("serve: %d releases loaded; pass d=<name> (one of %v)", len(set.rel), set.names)
	}
	r, ok := set.rel[name]
	if !ok {
		return nil, fmt.Errorf("serve: unknown release %q (loaded: %v)", name, set.names)
	}
	return r, nil
}

// Names returns the loaded release names, sorted.
func (s *Store) Names() []string {
	return append([]string(nil), s.cur.Load().names...)
}

// Len returns the number of loaded releases.
func (s *Store) Len() int { return len(s.cur.Load().rel) }

// Snapshot returns the current generation's releases (sorted by name)
// and its generation id as one consistent view — the catalog handler
// and follower reconciliation both need the pair to come from the same
// atomic load, or a concurrent reload could advertise generation N with
// generation N+1's files.
func (s *Store) Snapshot() ([]*Release, uint64) {
	set := s.cur.Load()
	rels := make([]*Release, 0, len(set.names))
	for _, n := range set.names {
		rels = append(rels, set.rel[n])
	}
	return rels, set.gen
}

// LoadSpec names one release and where to (re)load it from. The file
// must be in the x,y,t,value release format (datasets.LoadMatrixCSV):
// the store serves published releases, never raw readings.
type LoadSpec struct {
	Name string
	Path string
}

// ParseLoadSpec parses a -load argument: "name=path", or a bare path
// whose file stem becomes the release name.
func ParseLoadSpec(arg string) (LoadSpec, error) {
	name, path, ok := strings.Cut(arg, "=")
	if !ok {
		path = arg
		name = strings.TrimSuffix(filepath.Base(arg), filepath.Ext(arg))
	}
	if name == "" || path == "" {
		return LoadSpec{}, fmt.Errorf("serve: load spec %q: want name=path", arg)
	}
	return LoadSpec{Name: name, Path: path}, nil
}

// LoadAll configures the store's spec set and loads it. The load is
// all-or-nothing: every file is read, parsed, and indexed into a
// complete new generation before one atomic swap publishes it, so a
// failure — even on the last file — leaves the current releases exactly
// as they were. The specs are remembered either way, so a failed
// initial load can be retried with Reload once the files are fixed.
func (s *Store) LoadAll(specs []LoadSpec) error {
	s.mu.Lock()
	s.specs = append([]LoadSpec(nil), specs...)
	s.mu.Unlock()
	return s.Reload()
}

// Reload re-reads every configured spec from disk and atomically swaps
// the complete new set in. In-flight queries keep answering from the
// generation they already hold; no request ever observes a partial set.
func (s *Store) Reload() error {
	s.mu.Lock()
	specs := append([]LoadSpec(nil), s.specs...)
	s.mu.Unlock()
	if len(specs) == 0 {
		return errors.New("serve: reload: no load specs configured (use LoadAll)")
	}
	next := make(map[string]*Release, len(specs))
	for _, sp := range specs {
		if _, dup := next[sp.Name]; dup {
			return fmt.Errorf("serve: reload: duplicate release name %q", sp.Name)
		}
		m, src, err := loadSpecFile(sp)
		if err != nil {
			return err
		}
		next[sp.Name] = &Release{Name: sp.Name, Matrix: m, Index: grid.NewTileIndex(m), Source: src}
	}
	s.mu.Lock()
	s.publishLocked(newReleaseSet(next))
	s.mu.Unlock()
	return nil
}

// castagnoli is the one CRC-32C table: the store hashes every loaded
// release with it, and CheckCRC32C verifies file images against it.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CheckCRC32C verifies a file image against a catalog entry's exact
// size and CRC-32C. It is the one check release bytes pass wherever
// they are re-read: a follower installing a download or reconciling
// its data directory, the scrubber re-verifying a release at rest, and
// stpt-doctor auditing a replica against its peer.
func CheckCRC32C(data []byte, size int64, sum uint32) error {
	got := crc32.Checksum(data, castagnoli)
	if int64(len(data)) != size || got != sum {
		return fmt.Errorf("size %d crc32c %08x, catalog says size %d crc32c %08x", len(data), got, size, sum)
	}
	return nil
}

// loadSpecFile reads one spec's release file once, then hashes and
// parses those same bytes, so the returned ReleaseSource describes
// exactly what was parsed — not what a later reader might find at the
// same path.
func loadSpecFile(sp LoadSpec) (*grid.Matrix, *ReleaseSource, error) {
	data, err := os.ReadFile(sp.Path)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: %w", err)
	}
	m, err := datasets.LoadMatrixCSV(bytes.NewReader(data))
	if err != nil {
		return nil, nil, fmt.Errorf("serve: %s: %w", sp.Path, err)
	}
	return m, &ReleaseSource{Path: sp.Path, Size: int64(len(data)), CRC: crc32.Checksum(data, castagnoli)}, nil
}
