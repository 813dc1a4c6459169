package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/datasets"
	"repro/internal/dp"
	"repro/internal/grid"
	"repro/internal/ingest"
	"repro/internal/resilience"
)

// Notifier tells the serving tier a new generation is published.
// Typically an HTTPNotifier ringing stpt-serve's /-/reload bell; nil
// means nothing listens and the reload stage is a journalled no-op.
type Notifier interface {
	Notify(ctx context.Context) error
}

// NotifierFunc adapts a function to the Notifier interface.
type NotifierFunc func(ctx context.Context) error

// Notify implements Notifier.
func (f NotifierFunc) Notify(ctx context.Context) error { return f(ctx) }

// HTTPNotifier returns a Notifier that POSTs url with the bearer token,
// the shape of stpt-serve's authenticated /-/reload endpoint. A nil
// client uses a default with a conservative timeout.
func HTTPNotifier(url, token string, client *http.Client) Notifier {
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	return NotifierFunc(func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, nil)
		if err != nil {
			return fmt.Errorf("pipeline: reload request: %w", err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := client.Do(req)
		if err != nil {
			return fmt.Errorf("pipeline: reload notify: %w", err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("pipeline: reload notify: %s answered %d", url, resp.StatusCode)
		}
		return nil
	})
}

// Config parameterises a Supervisor.
type Config struct {
	// Dataset is the ledger dataset name the tree composer charges. The
	// pipeline owns it exclusively.
	Dataset string
	// OutDir receives the published releases: window-%06d.csv per
	// window plus latest.csv, with a staging/ subdirectory for the frozen
	// cuts of windows not yet settled.
	OutDir string
	// Window is the number of time intervals per published window.
	Window int
	// EpsNode is ε_node, the per-tree-node budget each window's release
	// is sanitised with; total spend grows as ε_node·(⌊log₂ n⌋+1).
	EpsNode float64
	// Budget is the lifetime ε budget enforced by the ledger; <= 0
	// means unlimited. Raising it at runtime (SetBudget) resumes a
	// budget-exhausted pipeline automatically.
	Budget float64
	// Sensitivity is the per-cell L1 sensitivity (default 1: one
	// household contributes one reading per interval).
	Sensitivity float64
	// Seed derives each window's deterministic noise seed; the seed is
	// frozen into the window's cut record so crash recovery re-noises
	// bit-identically.
	Seed int64
	// Policy bounds per-stage retries of transient failures.
	Policy resilience.Policy
	// Notifier is rung after each publication (nil: no serving tier).
	Notifier Notifier
}

// Status is a point-in-time snapshot of the supervisor for /status and
// /readyz.
type Status struct {
	Dataset         string  `json:"dataset"`
	LastWindow      int     `json:"last_window"`
	State           State   `json:"state,omitempty"`
	Published       int     `json:"published"`
	Spent           float64 `json:"spent"`
	Budget          float64 `json:"budget"`
	BudgetExhausted bool    `json:"budget_exhausted"`
	LastError       string  `json:"last_error,omitempty"`
}

// Supervisor drives the continual-release lifecycle. Exactly one
// supervisor may own a (manifest, ledger dataset, OutDir) triple.
type Supervisor struct {
	cfg  Config
	in   *ingest.Ingester
	led  *dp.Ledger
	man  *Manifest
	tree *dp.TreeComposer

	// held carries the window in flight from one Step to the next, so
	// the release stage noises the cut without decoding the file just
	// written and publish writes the bytes just computed. Only the
	// stages touch it, and Step runs them one at a time.
	held heldWindow

	mu        sync.Mutex
	budget    float64
	exhausted bool
	lastErr   string
}

// heldWindow is what the supervisor keeps in memory of window w: the cut
// once its cut record is durable, then the release bytes once their
// released record is. The stage that uses an item takes it first, so a
// retry or a restart finds nothing held and rebuilds from the staged cut.
type heldWindow struct {
	w   int
	cut *grid.Matrix
	rel []byte
}

// take returns what is held of window w and forgets everything held.
func (s *Supervisor) take(w int) heldWindow {
	h := s.held
	s.held = heldWindow{}
	if h.w != w {
		return heldWindow{}
	}
	return h
}

// New validates cfg, prepares the output and staging directories, and
// builds a supervisor resuming from whatever the manifest already
// records. Staged files from interrupted windows are kept — recovery
// needs them — and swept only once their window completes.
func New(cfg Config, in *ingest.Ingester, led *dp.Ledger, man *Manifest) (*Supervisor, error) {
	if cfg.Window < 1 {
		return nil, fmt.Errorf("pipeline: window size %d (want >= 1 intervals)", cfg.Window)
	}
	if cfg.OutDir == "" {
		return nil, errors.New("pipeline: output directory required")
	}
	if cfg.Sensitivity == 0 {
		cfg.Sensitivity = 1
	}
	if cfg.Sensitivity < 0 {
		return nil, fmt.Errorf("pipeline: negative sensitivity %v", cfg.Sensitivity)
	}
	tree, err := dp.NewTreeComposer(cfg.Dataset, cfg.EpsNode)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(cfg.OutDir, "staging"), 0o755); err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	return &Supervisor{cfg: cfg, in: in, led: led, man: man, tree: tree, budget: cfg.Budget}, nil
}

// WindowPath, LatestPath and CutPath name the pipeline's
// on-disk artifacts under an output directory. They are the single
// source of truth for the layout — the supervisor writes through them
// and the integrity tooling (scrubber, stpt-doctor) audits through
// them, so the two can never disagree about where a window lives.
func WindowPath(outDir string, w int) string {
	return filepath.Join(outDir, fmt.Sprintf("window-%06d.csv", w))
}

// LatestPath names the always-current alias of the newest release.
func LatestPath(outDir string) string { return filepath.Join(outDir, "latest.csv") }

// CutPath names window w's frozen raw sub-matrix in staging.
func CutPath(outDir string, w int) string {
	return filepath.Join(outDir, "staging", fmt.Sprintf("window-%06d.cut.csv", w))
}

func (s *Supervisor) windowPath(w int) string { return WindowPath(s.cfg.OutDir, w) }
func (s *Supervisor) latestPath() string      { return LatestPath(s.cfg.OutDir) }
func (s *Supervisor) cutPath(w int) string    { return CutPath(s.cfg.OutDir, w) }

// windowSeed derives window w's noise seed from the configured base.
// The multiplier is an arbitrary prime spreading consecutive windows
// far apart in seed space; what matters is determinism, not quality —
// the seed feeds a PRNG whose draws are what the DP analysis treats as
// the noise.
func windowSeed(base int64, w int) int64 { return base + int64(w)*1000003 }

// next returns the window and state the supervisor should execute now,
// derived purely from the manifest tip.
func (s *Supervisor) next() (int, State) {
	w, st := s.man.LastWindow(), s.man.LastState()
	switch {
	case w == 0:
		return 1, StateCut
	case st == StateReloaded:
		return w + 1, StateCut
	default:
		return w, st.next()
	}
}

// Step executes exactly one lifecycle stage (with per-stage retry) and
// reports whether it advanced. (false, nil) means there is nothing to
// do yet: the next window's span is not fully ingested, or the stream
// has ended. Budget exhaustion surfaces as an error wrapping
// dp.ErrBudgetExhausted and latches the degraded state Status reports;
// the stage stays pending, so a later Step — after SetBudget or a
// restart with a larger budget — resumes exactly there.
func (s *Supervisor) Step(ctx context.Context) (bool, error) {
	w, st := s.next()
	if st == StateCut && !s.windowReady(w) {
		return false, nil
	}
	var stage func(context.Context, int) error
	switch st {
	case StateCut:
		stage = s.doCut
	case StateReleased:
		stage = s.doRelease
	case StateCharged:
		stage = s.doCharge
	case StatePublished:
		stage = s.doPublish
	case StateReloaded:
		stage = s.doReload
	}
	err := resilience.Retry(ctx, s.cfg.Policy, func(int, int64) error {
		return classify(stage(ctx, w))
	})
	s.noteOutcome(st, err)
	if err != nil {
		return false, fmt.Errorf("pipeline: window %d stage %s: %w", w, st, err)
	}
	return true, nil
}

// classify marks transient errors retryable for the stage retry loop.
// Refusals that retrying cannot fix — an exhausted budget, a poisoned
// or corrupt journal — pass through fatal, stopping the policy loop on
// the first attempt.
func classify(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, dp.ErrBudgetExhausted),
		errors.Is(err, dp.ErrLedgerPoisoned),
		errors.Is(err, ErrManifestPoisoned),
		errors.Is(err, ErrManifestCorrupt):
		return err
	default:
		return resilience.MarkRetryable(err)
	}
}

// noteOutcome maintains the degraded-state latch /readyz reports.
func (s *Supervisor) noteOutcome(st State, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case err == nil:
		s.exhausted = false
		s.lastErr = ""
	case errors.Is(err, dp.ErrBudgetExhausted):
		s.exhausted = true
		s.lastErr = err.Error()
	default:
		s.lastErr = fmt.Sprintf("stage %s: %v", st, err)
	}
}

// windowReady reports whether window w's whole span is inside the
// configured time range and covered by durably committed readings.
func (s *Supervisor) windowReady(w int) bool {
	_, _, ct := s.in.Dims()
	end := w * s.cfg.Window
	return end <= ct && s.in.HighWater() >= end
}

// doCut freezes window w's committed sub-matrix into staging and
// journals the cut. Until the record is durable the cut is not
// authoritative — a crash before the append re-cuts, legitimately
// including any readings that arrived in between. After it, the staged
// file is the window's data, and late arrivals are excluded by design;
// the supervisor also holds the same matrix for the release stage.
func (s *Supervisor) doCut(ctx context.Context, w int) error {
	t0, t1 := (w-1)*s.cfg.Window, w*s.cfg.Window
	cut, err := s.in.CutWindow(t0, t1)
	if err != nil {
		return err
	}
	if err := resilience.Fire(ctx, resilience.FaultWindowCut, w); err != nil {
		return err
	}
	// The cut holds the window's raw, un-noised readings, so only the
	// pipeline's own user may read it, unlike the releases beside it.
	if err := resilience.AtomicWriteFile(ctx, s.cutPath(w), 0o600, func(wr io.Writer) error {
		return datasets.SaveMatrixCSV(cut, wr)
	}); err != nil {
		return err
	}
	if err := s.man.Append(ctx, Record{
		Window: w, State: StateCut, T0: t0, T1: t1, Seed: windowSeed(s.cfg.Seed, w),
	}); err != nil {
		return err
	}
	s.held = heldWindow{w: w, cut: cut}
	return nil
}

// RebuildRelease re-derives window cutRec.Window's release bytes from
// its frozen cut: load the staged cut, re-noise with the journalled
// seed, re-encode. Given the same cut file and record the output is
// bit-identical every time, which is what lets crash recovery redo a
// publish — and lets stpt-doctor repair a damaged window file offline —
// and then prove the bytes against the journalled checksum.
func RebuildRelease(outDir string, cutRec Record, epsNode, sensitivity float64) ([]byte, error) {
	w := cutRec.Window
	f, err := os.Open(CutPath(outDir, w))
	if err != nil {
		return nil, fmt.Errorf("pipeline: window %d cut missing: %w", w, err)
	}
	m, err := datasets.LoadMatrixCSV(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("pipeline: window %d cut: %w", w, err)
	}
	return noiseCut(m, cutRec, epsNode, sensitivity)
}

// noiseCut applies the Laplace mechanism to the cut in place, cell by
// cell with the cut record's seed, and returns the encoded release. It
// refuses what the cut's file would fail to decode as — a non-finite
// cell — and a cut whose interval count differs from the record, so the
// held cut and its staged file yield the same bytes or the same refusal.
func noiseCut(m *grid.Matrix, cutRec Record, epsNode, sensitivity float64) ([]byte, error) {
	w := cutRec.Window
	if want := cutRec.T1 - cutRec.T0; m.Ct != want {
		return nil, fmt.Errorf("pipeline: window %d cut spans %d intervals, journal says %d", w, m.Ct, want)
	}
	lap := dp.NewLaplace(rand.New(rand.NewSource(cutRec.Seed)))
	data := m.Data()
	for i, v := range data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("pipeline: window %d cut: non-finite value %v in cell %d", w, v, i)
		}
		data[i] = lap.Perturb(v, sensitivity, epsNode)
	}
	var buf bytes.Buffer
	if err := datasets.SaveMatrixCSV(m, &buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// doRelease noises window w's cut — the held one, else the staged file —
// journals the release's checksum and holds the bytes for publish. The
// held cut is taken before it is noised in place, so a stage that fails
// after that point retries from the file rather than noise twice.
func (s *Supervisor) doRelease(ctx context.Context, w int) error {
	cutRec, ok := s.man.Get(w, StateCut)
	if !ok {
		return fmt.Errorf("%w: window %d has no cut record", ErrManifestCorrupt, w)
	}
	var rel []byte
	var err error
	if cut := s.take(w).cut; cut != nil {
		rel, err = noiseCut(cut, cutRec, s.cfg.EpsNode, s.cfg.Sensitivity)
	} else {
		rel, err = RebuildRelease(s.cfg.OutDir, cutRec, s.cfg.EpsNode, s.cfg.Sensitivity)
	}
	if err != nil {
		return err
	}
	if err := s.man.Append(ctx, Record{
		Window: w, State: StateReleased, Checksum: crc32.ChecksumIEEE(rel),
	}); err != nil {
		return err
	}
	s.held = heldWindow{w: w, rel: rel}
	return nil
}

// doCharge spends the window's tree-composed ε against the ledger. The
// composer's expected-spend arithmetic makes a replayed charge (crash
// between the ledger fsync and the manifest append) a detected no-op,
// so the budget is never double-charged.
func (s *Supervisor) doCharge(ctx context.Context, w int) error {
	s.mu.Lock()
	budget := s.budget
	s.mu.Unlock()
	levels, eps, err := s.tree.ChargeWindow(ctx, s.led, w, budget)
	if err != nil {
		return err
	}
	return s.man.Append(ctx, Record{
		Window: w, State: StateCharged, Eps: eps, Levels: levels,
	})
}

// doPublish makes the release visible: window-NNNNNN.csv plus
// latest.csv, both atomic renames. The bytes — held from the release
// stage, else rebuilt deterministically from the cut — are verified
// against the journalled checksum first; if even the rebuild disagrees
// with the journal the pipeline refuses, because publishing unverified
// bytes is worse than stopping.
func (s *Supervisor) doPublish(ctx context.Context, w int) error {
	relRec, ok := s.man.Get(w, StateReleased)
	if !ok {
		return fmt.Errorf("%w: window %d has no released record", ErrManifestCorrupt, w)
	}
	rel := s.take(w).rel
	if rel == nil || crc32.ChecksumIEEE(rel) != relRec.Checksum {
		cutRec, ok := s.man.Get(w, StateCut)
		if !ok {
			return fmt.Errorf("%w: window %d has no cut record", ErrManifestCorrupt, w)
		}
		var err error
		if rel, err = RebuildRelease(s.cfg.OutDir, cutRec, s.cfg.EpsNode, s.cfg.Sensitivity); err != nil {
			return err
		}
		if got := crc32.ChecksumIEEE(rel); got != relRec.Checksum {
			return fmt.Errorf("%w: window %d rebuilt release crc %08x != journalled %08x",
				ErrManifestCorrupt, w, got, relRec.Checksum)
		}
	}
	if err := resilience.Fire(ctx, resilience.FaultWindowPublish, w); err != nil {
		return err
	}
	for _, path := range []string{s.windowPath(w), s.latestPath()} {
		if err := resilience.AtomicWriteFile(ctx, path, 0o644, func(wr io.Writer) error {
			_, werr := wr.Write(rel)
			return werr
		}); err != nil {
			return err
		}
	}
	return s.man.Append(ctx, Record{Window: w, State: StatePublished})
}

// doReload rings the serving tier's bell, journals completion, and
// sweeps the window's staged cut. Re-notifying after a crash is
// harmless — stpt-serve's reload is idempotent — so the record lands
// only after a successful notify.
func (s *Supervisor) doReload(ctx context.Context, w int) error {
	if err := resilience.Fire(ctx, resilience.FaultReloadNotify, w); err != nil {
		return err
	}
	if s.cfg.Notifier != nil {
		if err := s.cfg.Notifier.Notify(ctx); err != nil {
			return err
		}
	}
	if err := s.man.Append(ctx, Record{Window: w, State: StateReloaded}); err != nil {
		return err
	}
	// Best-effort: the window is fully settled, its cut is garbage.
	os.Remove(s.cutPath(w))
	return nil
}

// SetBudget replaces the lifetime budget and clears the exhaustion
// latch, resuming a degraded pipeline on its next Step.
func (s *Supervisor) SetBudget(budget float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.budget = budget
	s.exhausted = false
}

// Status snapshots the supervisor.
func (s *Supervisor) Status() Status {
	s.mu.Lock()
	budget, exhausted, lastErr := s.budget, s.exhausted, s.lastErr
	s.mu.Unlock()
	published := 0
	for _, r := range s.man.Records() {
		if r.State == StatePublished {
			published++
		}
	}
	return Status{
		Dataset:         s.cfg.Dataset,
		LastWindow:      s.man.LastWindow(),
		State:           s.man.LastState(),
		Published:       published,
		Spent:           s.led.Spent(s.cfg.Dataset),
		Budget:          budget,
		BudgetExhausted: exhausted,
		LastError:       lastErr,
	}
}

// RunOnce steps until no further progress is possible — every covered
// window is published or the feed has not reached the next cut — and
// returns the first error. Budget exhaustion is returned (wrapping
// dp.ErrBudgetExhausted) so one-shot callers can exit distinctly.
func (s *Supervisor) RunOnce(ctx context.Context) error {
	for {
		advanced, err := s.Step(ctx)
		if err != nil || !advanced {
			return err
		}
	}
}

// Run supervises until ctx is cancelled, polling every interval when
// idle. Transient stage failures were already retried per the policy;
// anything still failing that is not a budget refusal stops Run — the
// journal makes a restart resume exactly where it stopped, so
// crash-only is the safe shape. Budget exhaustion degrades instead:
// the last good generation keeps serving, /readyz reports it, and a
// raised budget resumes the loop automatically.
func (s *Supervisor) Run(ctx context.Context, interval time.Duration) error {
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		advanced, err := s.Step(ctx)
		switch {
		case err != nil && errors.Is(err, dp.ErrBudgetExhausted):
			fmt.Fprintf(os.Stderr, "pipeline: event=degraded reason=budget_exhausted detail=%q\n", err.Error())
		case err != nil:
			return err
		case advanced:
			continue // drain all ready work before sleeping
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
}
