package scrub

import (
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/dp"
	"repro/internal/ingest"
	"repro/internal/pipeline"
	"repro/internal/resilience"
	"repro/internal/serve"
)

// FsckConfig selects which artifact groups a cross-artifact audit
// covers. Every field is optional; checks run only for what is
// configured, so the same Fsck serves a pipeline host (OutDir +
// Manifest + Ledger + WAL), a serving replica (Peer + DataDir), or a CI
// job auditing a finished run's directory.
type FsckConfig struct {
	// OutDir is the pipeline's publication directory (window files,
	// latest.csv, staging/).
	OutDir string
	// Manifest is the window-manifest journal path.
	Manifest string
	// Ledger is the ε-ledger journal path; with Dataset and EpsNode set
	// the spend is additionally proved equal to the tree composer's
	// expected-spend arithmetic for the manifest's charged windows.
	Ledger  string
	Dataset string
	EpsNode float64
	// Sensitivity parameterises release rebuilds during repair
	// (default 1, matching the pipeline's default).
	Sensitivity float64
	// WAL is the ingest write-ahead log path; coverage is proved gapless
	// from the snapshot high-water through the active file.
	WAL string
	// Peer is a healthy replica's base URL ("http://host:port"); with
	// DataDir set, every catalog file is verified against local bytes
	// and damaged ones become refetch-from-peer repairs.
	Peer    string
	DataDir string
	// HTTP overrides the peer client; Retry bounds peer fetches
	// (defaults to serve.FollowerRetryPolicy).
	HTTP  *http.Client
	Retry resilience.Policy
}

// Severity ranks a finding: an "error" breaks an invariant the system
// relies on; a "warn" is residue worth an operator's glance (a stale
// quarantine file, a covered WAL segment awaiting cleanup).
type Severity string

const (
	SeverityError Severity = "error"
	SeverityWarn  Severity = "warn"
)

// RepairKind names a typed repair action Apply knows how to execute.
type RepairKind string

const (
	// RepairRewriteLatest rewrites latest.csv from the newest published
	// window file.
	RepairRewriteLatest RepairKind = "rewrite-latest"
	// RepairRebuildFromCut re-derives a window's release bytes from its
	// frozen cut and the journalled seed, then re-publishes them.
	RepairRebuildFromCut RepairKind = "rebuild-from-cut"
	// RepairRefetchFromPeer re-fetches a catalog file from the healthy
	// peer, replacing the local bytes after CRC verification.
	RepairRefetchFromPeer RepairKind = "refetch-from-peer"
)

// Repair is one executable step of the repair plan.
type Repair struct {
	Kind RepairKind `json:"kind"`
	// Path is the artifact to restore.
	Path string `json:"path"`
	// Source is what the repair draws on: a cut file, a window file, or
	// a peer URL.
	Source string `json:"source,omitempty"`
	// Window is set for window-scoped repairs.
	Window int `json:"window,omitempty"`
	// Name is the catalog name for peer refetches.
	Name string `json:"name,omitempty"`
	// Size and CRC pin the bytes the repaired artifact must verify to.
	Size int64  `json:"size,omitempty"`
	CRC  uint32 `json:"crc,omitempty"`
}

// Finding is one audited fact that failed (or warrants attention), with
// the repair that would fix it when one exists.
type Finding struct {
	// Code is a stable machine-readable identifier, e.g.
	// "window-crc-mismatch", "ledger-spend-divergence".
	Code     string   `json:"code"`
	Severity Severity `json:"severity"`
	Artifact string   `json:"artifact"`
	Detail   string   `json:"detail"`
	Repair   *Repair  `json:"repair,omitempty"`
}

// Report is a completed audit: how many invariants were checked and
// every finding, errors first.
type Report struct {
	Checked  int       `json:"checked"`
	Findings []Finding `json:"findings"`
}

// Errors counts the error-severity findings.
func (r *Report) Errors() int {
	n := 0
	for _, f := range r.Findings {
		if f.Severity == SeverityError {
			n++
		}
	}
	return n
}

func (r *Report) add(f Finding) { r.Findings = append(r.Findings, f) }

// Fsck audits every invariant the configuration covers, strictly
// read-only, and returns the report with its typed repair plan. It only
// errors when the audit itself cannot run (no checks configured, ctx
// cancelled); broken invariants are findings, not errors.
func Fsck(ctx context.Context, cfg FsckConfig) (*Report, error) {
	if cfg.Manifest == "" && cfg.Ledger == "" && cfg.WAL == "" && cfg.OutDir == "" && cfg.Peer == "" {
		return nil, fmt.Errorf("scrub: fsck has nothing to check — configure at least one artifact group")
	}
	rep := &Report{}
	var recs []pipeline.Record
	if cfg.Manifest != "" {
		recs = fsckManifest(cfg, rep)
	}
	if cfg.OutDir != "" && recs != nil {
		fsckWindows(cfg, recs, rep)
	}
	if cfg.Ledger != "" {
		fsckLedger(cfg, recs, rep)
	}
	if cfg.WAL != "" {
		fsckWAL(cfg, rep)
	}
	if cfg.Peer != "" && cfg.DataDir != "" {
		if err := fsckPeer(ctx, cfg, rep); err != nil {
			return nil, err
		}
	}
	fsckQuarantineResidue(cfg, rep)
	sort.SliceStable(rep.Findings, func(i, j int) bool {
		return rep.Findings[i].Severity == SeverityError && rep.Findings[j].Severity != SeverityError
	})
	return rep, nil
}

// fsckManifest scans the journal read-only; interior damage is terminal
// for the window checks (nil return) since nothing downstream can be
// trusted without it.
func fsckManifest(cfg FsckConfig, rep *Report) []pipeline.Record {
	rep.Checked++
	raw, err := os.ReadFile(cfg.Manifest)
	if err != nil {
		rep.add(Finding{Code: "manifest-unreadable", Severity: SeverityError,
			Artifact: cfg.Manifest, Detail: err.Error()})
		return nil
	}
	recs, durable, err := pipeline.ScanManifest(cfg.Manifest, raw)
	if err != nil {
		rep.add(Finding{Code: "manifest-corrupt", Severity: SeverityError,
			Artifact: cfg.Manifest, Detail: err.Error()})
		return nil
	}
	if durable < int64(len(raw)) {
		rep.add(Finding{Code: "manifest-torn-tail", Severity: SeverityWarn, Artifact: cfg.Manifest,
			Detail: fmt.Sprintf("%d trailing bytes past durable offset %d (a crash mid-append; recovery truncates this)",
				int64(len(raw))-durable, durable)})
	}
	return recs
}

// fsckWindows proves every published window's on-disk bytes match the
// journalled release checksum, and latest.csv mirrors the newest
// published window.
func fsckWindows(cfg FsckConfig, recs []pipeline.Record, rep *Report) {
	released := map[int]pipeline.Record{}
	cuts := map[int]pipeline.Record{}
	newest := 0
	for _, rec := range recs {
		switch rec.State {
		case pipeline.StateCut:
			cuts[rec.Window] = rec
		case pipeline.StateReleased:
			released[rec.Window] = rec
		case pipeline.StatePublished:
			rep.Checked++
			relRec, ok := released[rec.Window]
			if !ok {
				rep.add(Finding{Code: "window-no-released-record", Severity: SeverityError,
					Artifact: cfg.Manifest, Detail: fmt.Sprintf("window %d published without a released record", rec.Window)})
				continue
			}
			path := pipeline.WindowPath(cfg.OutDir, rec.Window)
			checkWindowFile(cfg, rec.Window, path, relRec.Checksum, cuts[rec.Window], rep)
			if rec.Window > newest {
				newest = rec.Window
			}
		}
	}
	if newest == 0 {
		return
	}
	rep.Checked++
	latest := pipeline.LatestPath(cfg.OutDir)
	want := released[newest].Checksum
	raw, err := os.ReadFile(latest)
	switch {
	case err != nil:
		rep.add(Finding{Code: "latest-missing", Severity: SeverityError, Artifact: latest,
			Detail: err.Error(),
			Repair: &Repair{Kind: RepairRewriteLatest, Path: latest,
				Source: pipeline.WindowPath(cfg.OutDir, newest), Window: newest, CRC: want}})
	case crc32.ChecksumIEEE(raw) != want:
		rep.add(Finding{Code: "latest-crc-mismatch", Severity: SeverityError, Artifact: latest,
			Detail: fmt.Sprintf("crc %08x, window %d journalled %08x", crc32.ChecksumIEEE(raw), newest, want),
			Repair: &Repair{Kind: RepairRewriteLatest, Path: latest,
				Source: pipeline.WindowPath(cfg.OutDir, newest), Window: newest, CRC: want}})
	}
}

// checkWindowFile verifies one published window file and plans its
// repair: rebuild-from-cut when the frozen cut survives, unrepairable
// otherwise (the noise seed is useless without the raw cut).
func checkWindowFile(cfg FsckConfig, w int, path string, want uint32, cutRec pipeline.Record, rep *Report) {
	raw, err := os.ReadFile(path)
	if err == nil && crc32.ChecksumIEEE(raw) == want {
		return
	}
	code, detail := "window-crc-mismatch", ""
	if err != nil {
		code, detail = "window-missing", err.Error()
	} else {
		detail = fmt.Sprintf("crc %08x, journal says %08x", crc32.ChecksumIEEE(raw), want)
	}
	f := Finding{Code: code, Severity: SeverityError, Artifact: path, Detail: detail}
	cutPath := pipeline.CutPath(cfg.OutDir, w)
	if cutRec.State == pipeline.StateCut {
		if _, serr := os.Stat(cutPath); serr == nil {
			f.Repair = &Repair{Kind: RepairRebuildFromCut, Path: path, Source: cutPath, Window: w, CRC: want}
		} else {
			f.Detail += " — unrepairable: the frozen cut is gone (staging was swept when the window completed); restore from a replica"
		}
	} else {
		f.Detail += " — unrepairable: no cut record in the manifest"
	}
	rep.add(f)
}

// fsckLedger scans the ε ledger read-only and, when the manifest and
// composer parameters are configured, proves the durable spend equals
// ExpectedSpend for the number of charged windows — the paper's budget
// accounting, checked with == because both sides fold identically.
func fsckLedger(cfg FsckConfig, recs []pipeline.Record, rep *Report) {
	rep.Checked++
	sc, err := dp.VerifyLedgerFile(cfg.Ledger)
	if err != nil {
		rep.add(Finding{Code: "ledger-corrupt", Severity: SeverityError,
			Artifact: cfg.Ledger, Detail: err.Error()})
		return
	}
	if sc.Torn {
		rep.add(Finding{Code: "ledger-torn-tail", Severity: SeverityWarn, Artifact: cfg.Ledger,
			Detail: fmt.Sprintf("trailing bytes past durable offset %d (a crash mid-append; recovery truncates this)", sc.Durable)})
	}
	if cfg.Dataset == "" || cfg.EpsNode <= 0 || recs == nil {
		return
	}
	rep.Checked++
	charged := 0
	for _, rec := range recs {
		if rec.State == pipeline.StateCharged {
			charged++
		}
	}
	tree, err := dp.NewTreeComposer(cfg.Dataset, cfg.EpsNode)
	if err != nil {
		rep.add(Finding{Code: "ledger-spend-unverifiable", Severity: SeverityError,
			Artifact: cfg.Ledger, Detail: err.Error()})
		return
	}
	want := tree.ExpectedSpend(charged)
	got := sc.Spent[cfg.Dataset]
	if got != want {
		rep.add(Finding{Code: "ledger-spend-divergence", Severity: SeverityError, Artifact: cfg.Ledger,
			Detail: fmt.Sprintf("dataset %q spent ε=%v, tree composition expects ε=%v after %d charged windows — the ledger and manifest disagree about history",
				cfg.Dataset, got, want, charged)})
	}
}

// fsckWAL checks the log's structure: the snapshot decodes, sealed
// segments are contiguous and whole, and only the active segment may be
// torn.
func fsckWAL(cfg FsckConfig, rep *Report) {
	rep.Checked++
	cov, err := ingest.WALCoverage(cfg.WAL)
	if err != nil {
		rep.add(Finding{Code: "wal-coverage-broken", Severity: SeverityError,
			Artifact: cfg.WAL, Detail: err.Error()})
		return
	}
	for _, seg := range cov.Segments {
		if seg.TornTail && seg.Sealed {
			rep.add(Finding{Code: "wal-sealed-torn", Severity: SeverityError,
				Artifact: seg.Path, Detail: "sealed segment carries a torn tail"})
		}
	}
	if len(cov.Covered) > 0 {
		rep.add(Finding{Code: "wal-covered-residue", Severity: SeverityWarn, Artifact: cfg.WAL,
			Detail: fmt.Sprintf("%d sealed segment(s) already folded into the snapshot remain on disk (a compaction crashed mid-delete; recovery sweeps them)", len(cov.Covered))})
	}
}

// fsckPeer fetches the peer's catalog and verifies every advertised
// file against local bytes — the repair source a damaged replica heals
// from.
func fsckPeer(ctx context.Context, cfg FsckConfig, rep *Report) error {
	cat, err := fetchPeerCatalog(ctx, cfg)
	if err != nil {
		return fmt.Errorf("scrub: fsck peer %s: %w", cfg.Peer, err)
	}
	for _, cf := range cat.Files {
		rep.Checked++
		path := filepath.Join(cfg.DataDir, cf.File)
		raw, err := os.ReadFile(path)
		switch {
		case err != nil:
			rep.add(Finding{Code: "replica-file-missing", Severity: SeverityError, Artifact: path,
				Detail: err.Error(),
				Repair: &Repair{Kind: RepairRefetchFromPeer, Path: path, Source: cfg.Peer,
					Name: cf.Name, Size: cf.Size, CRC: cf.CRC}})
		case int64(len(raw)) != cf.Size || crc32.Checksum(raw, castagnoli) != cf.CRC:
			rep.add(Finding{Code: "replica-crc-mismatch", Severity: SeverityError, Artifact: path,
				Detail: fmt.Sprintf("size %d crc32c %08x, peer catalog says size %d crc32c %08x",
					len(raw), crc32.Checksum(raw, castagnoli), cf.Size, cf.CRC),
				Repair: &Repair{Kind: RepairRefetchFromPeer, Path: path, Source: cfg.Peer,
					Name: cf.Name, Size: cf.Size, CRC: cf.CRC}})
		}
	}
	return nil
}

// fsckQuarantineResidue warns about .corrupt files the scrubber or a
// prior repair left behind: evidence worth triaging, then deleting.
func fsckQuarantineResidue(cfg FsckConfig, rep *Report) {
	for _, dir := range []string{cfg.OutDir, cfg.DataDir} {
		if dir == "" {
			continue
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			continue
		}
		for _, e := range ents {
			if e.IsDir() || !strings.Contains(e.Name(), ".corrupt") {
				continue
			}
			rep.add(Finding{Code: "quarantine-residue", Severity: SeverityWarn,
				Artifact: filepath.Join(dir, e.Name()),
				Detail:   "quarantined artifact awaiting operator triage; delete once investigated"})
		}
	}
}

func fetchPeerCatalog(ctx context.Context, cfg FsckConfig) (serve.Catalog, error) {
	policy := cfg.Retry
	if policy.MaxAttempts == 0 {
		policy = serve.FollowerRetryPolicy()
	}
	client := cfg.HTTP
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := resilience.RetryHTTP(ctx, client, policy, "fsck catalog",
		func(ctx context.Context) (*http.Request, error) {
			return http.NewRequestWithContext(ctx, http.MethodGet, cfg.Peer+"/catalog", nil)
		},
		func(resp *http.Response) error {
			if resp.StatusCode != http.StatusOK {
				return resilience.StatusError(resp, "fsck catalog")
			}
			return nil
		})
	if err != nil {
		return serve.Catalog{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return serve.Catalog{}, err
	}
	return serve.DecodeCatalog(raw)
}

// Apply executes the report's repair plan, re-verifying every repaired
// artifact's bytes before counting it fixed. It returns the number of
// repairs applied and the first error; findings without a plan are
// skipped (they need a human or a replica that exists).
func Apply(ctx context.Context, cfg FsckConfig, rep *Report) (int, error) {
	applied := 0
	for _, f := range rep.Findings {
		if f.Repair == nil {
			continue
		}
		var err error
		switch f.Repair.Kind {
		case RepairRewriteLatest:
			err = applyRewriteLatest(ctx, f.Repair)
		case RepairRebuildFromCut:
			err = applyRebuildFromCut(ctx, cfg, f.Repair)
		case RepairRefetchFromPeer:
			err = applyRefetchFromPeer(ctx, cfg, f.Repair)
		default:
			err = fmt.Errorf("scrub: unknown repair kind %q", f.Repair.Kind)
		}
		if err != nil {
			return applied, fmt.Errorf("scrub: repairing %s (%s): %w", f.Repair.Path, f.Repair.Kind, err)
		}
		applied++
	}
	return applied, nil
}

// applyRewriteLatest copies the newest published window over latest.csv
// atomically, verifying the source first — repairing from damaged bytes
// would just spread the rot.
func applyRewriteLatest(ctx context.Context, r *Repair) error {
	raw, err := os.ReadFile(r.Source)
	if err != nil {
		return err
	}
	if got := crc32.ChecksumIEEE(raw); got != r.CRC {
		return fmt.Errorf("source %s has crc %08x, journal says %08x — repair the window file first", r.Source, got, r.CRC)
	}
	return resilience.AtomicWriteFile(ctx, r.Path, func(w io.Writer) error {
		_, werr := w.Write(raw)
		return werr
	})
}

// applyRebuildFromCut re-noises the frozen cut with the journalled seed
// and re-publishes the window file after proving the bytes match the
// journalled checksum — the same determinism crash recovery relies on.
func applyRebuildFromCut(ctx context.Context, cfg FsckConfig, r *Repair) error {
	raw, err := os.ReadFile(cfg.Manifest)
	if err != nil {
		return err
	}
	recs, _, err := pipeline.ScanManifest(cfg.Manifest, raw)
	if err != nil {
		return err
	}
	var cutRec pipeline.Record
	found := false
	for _, rec := range recs {
		if rec.Window == r.Window && rec.State == pipeline.StateCut {
			cutRec, found = rec, true
			break
		}
	}
	if !found {
		return fmt.Errorf("window %d has no cut record", r.Window)
	}
	sens := cfg.Sensitivity
	if sens == 0 {
		sens = 1
	}
	rel, err := pipeline.RebuildRelease(cfg.OutDir, cutRec, cfg.EpsNode, sens)
	if err != nil {
		return err
	}
	if got := crc32.ChecksumIEEE(rel); got != r.CRC {
		return fmt.Errorf("rebuilt release crc %08x != journalled %08x — wrong ε/sensitivity parameters, or the cut itself is damaged", got, r.CRC)
	}
	// Sweep any quarantined leftover of the rename-based scrubber first:
	// Apply's own write is atomic and the evidence stays preserved.
	return resilience.AtomicWriteFile(ctx, r.Path, func(w io.Writer) error {
		_, werr := w.Write(rel)
		return werr
	})
}

// applyRefetchFromPeer quarantines whatever damaged bytes remain, then
// pulls the file through the follower's verified fetch path (Range
// resume, CRC check, atomic rename) — one implementation of "download a
// catalog file correctly", not two.
func applyRefetchFromPeer(ctx context.Context, cfg FsckConfig, r *Repair) error {
	if raw, err := os.ReadFile(r.Path); err == nil {
		if int64(len(raw)) != r.Size || crc32.Checksum(raw, castagnoli) != r.CRC {
			if _, err := resilience.Quarantine(r.Path); err != nil {
				return fmt.Errorf("quarantining damaged bytes: %w", err)
			}
		}
	}
	fl, err := serve.NewFollower(serve.NewStore(), serve.FollowerConfig{
		Peer: cfg.Peer, Dir: cfg.DataDir, HTTP: cfg.HTTP, Retry: cfg.Retry,
	})
	if err != nil {
		return err
	}
	return fl.RepairFile(ctx, r.Path)
}
