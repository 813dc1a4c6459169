package scrub

import (
	"context"
	"fmt"
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

// findingCodes names, per target kind, the finding Fsck reports when
// the artifact cannot be read and when it fails its Check.
var findingCodes = map[string]struct{ unreadable, corrupt string }{
	"manifest": {"manifest-unreadable", "manifest-corrupt"},
	"ledger":   {"ledger-corrupt", "ledger-corrupt"},
	"window":   {"window-missing", "window-crc-mismatch"},
	"latest":   {"latest-missing", "latest-crc-mismatch"},
	"release":  {"replica-file-missing", "replica-crc-mismatch"},
}

// Fsck audits every invariant the configuration covers, strictly
// read-only, and returns the report with its typed repair plan. It only
// errors when the audit itself cannot run (no checks configured, ctx
// cancelled); broken invariants are findings, not errors.
//
// The per-artifact checks are the scrubber's: Fsck reads each target of
// the inventory the pipeline daemon scrubs (PipelineTargets — its WAL
// group aside, which CheckWAL below covers) plus one release target per
// file a peer's catalog advertises, once, and runs its Check; a failure
// becomes a finding carrying the target's Repair. On top of that it
// adds only what no single file can show: ledger spend against the
// manifest, WAL gaplessness, torn-tail warnings for the two journals,
// and quarantine residue.
func Fsck(ctx context.Context, cfg FsckConfig) (*Report, error) {
	if cfg.Manifest == "" && cfg.Ledger == "" && cfg.WAL == "" && cfg.OutDir == "" && cfg.Peer == "" {
		return nil, fmt.Errorf("scrub: fsck has nothing to check — configure at least one artifact group")
	}
	targets := PipelineTargets(cfg.OutDir, cfg.Manifest, cfg.Ledger, "")()
	if cfg.Peer != "" && cfg.DataDir != "" {
		cat, err := serve.FetchCatalog(ctx, cfg.HTTP, cfg.Peer, cfg.Retry)
		if err != nil {
			return nil, fmt.Errorf("scrub: fsck peer %s: %w", cfg.Peer, err)
		}
		targets = append(targets, catalogTargets(cat, cfg.Peer, cfg.DataDir)...)
	}
	rep := &Report{}
	journals := map[string][]byte{} // manifest and ledger bytes that passed their Check
	for _, t := range targets {
		rep.Checked++
		raw, err := os.ReadFile(t.Path)
		code := findingCodes[t.Kind].unreadable
		if err == nil {
			code, err = findingCodes[t.Kind].corrupt, t.Check(raw)
		}
		if err == nil {
			if t.Path == cfg.Manifest || t.Path == cfg.Ledger {
				journals[t.Path] = raw
			}
			continue
		}
		f := Finding{Code: code, Severity: SeverityError, Artifact: t.Path, Detail: err.Error(), Repair: t.Repair}
		if t.Kind == "window" && t.Repair == nil {
			f.Detail += " — unrepairable: the frozen cut is gone (staging was swept when the window completed); restore from a replica"
		}
		rep.add(f)
	}
	// The relational checks re-scan bytes whose Check just passed, so
	// the scans cannot fail.
	var recs []pipeline.Record
	if raw, ok := journals[cfg.Manifest]; ok {
		var durable int64
		recs, durable, _ = pipeline.ScanManifest(cfg.Manifest, raw)
		rep.tornTail("manifest-torn-tail", cfg.Manifest, durable, len(raw))
	}
	if raw, ok := journals[cfg.Ledger]; ok {
		sc, _ := dp.ScanLedger(cfg.Ledger, raw)
		rep.tornTail("ledger-torn-tail", cfg.Ledger, sc.Durable, len(raw))
		if cfg.Dataset != "" && cfg.EpsNode > 0 && recs != nil {
			fsckSpend(cfg, recs, sc.Spent[cfg.Dataset], rep)
		}
	}
	if cfg.WAL != "" {
		// Gaplessness under recovery's own rules: the snapshot decodes,
		// sealed segments run contiguously from its high-water and parse
		// whole, and only the active file may be torn.
		rep.Checked++
		if covered, err := ingest.CheckWAL(cfg.WAL); err != nil {
			rep.add(Finding{Code: "wal-coverage-broken", Severity: SeverityError,
				Artifact: cfg.WAL, Detail: err.Error()})
		} else if covered > 0 {
			rep.add(Finding{Code: "wal-covered-residue", Severity: SeverityWarn, Artifact: cfg.WAL,
				Detail: fmt.Sprintf("%d sealed segment(s) already folded into the snapshot remain on disk (a compaction crashed mid-delete; recovery sweeps them)", covered)})
		}
	}
	fsckQuarantineResidue(cfg, rep)
	sort.SliceStable(rep.Findings, func(i, j int) bool {
		return rep.Findings[i].Severity == SeverityError && rep.Findings[j].Severity != SeverityError
	})
	return rep, nil
}

// tornTail warns about bytes past a journal's durable offset.
func (r *Report) tornTail(code, path string, durable int64, size int) {
	if durable < int64(size) {
		r.add(Finding{Code: code, Severity: SeverityWarn, Artifact: path,
			Detail: fmt.Sprintf("%d trailing bytes past durable offset %d (a crash mid-append; recovery truncates this)",
				int64(size)-durable, durable)})
	}
}

// fsckSpend proves the ledger's durable spend equals ExpectedSpend for
// the number of windows the manifest charged — the paper's budget
// accounting, checked with == because both sides fold identically.
func fsckSpend(cfg FsckConfig, recs []pipeline.Record, got float64, rep *Report) {
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
	if want := tree.ExpectedSpend(charged); got != want {
		rep.add(Finding{Code: "ledger-spend-divergence", Severity: SeverityError, Artifact: cfg.Ledger,
			Detail: fmt.Sprintf("dataset %q spent ε=%v, tree composition expects ε=%v after %d charged windows — the ledger and manifest disagree about history",
				cfg.Dataset, got, want, charged)})
	}
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
	if err := journalled(r.CRC)(raw); err != nil {
		return fmt.Errorf("source %s: %v — repair the window file first", r.Source, err)
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
	if err := journalled(r.CRC)(rel); err != nil {
		return fmt.Errorf("rebuilt release: %v — wrong ε/sensitivity parameters, or the cut itself is damaged", err)
	}
	// A quarantined copy the scrubber renamed aside stays as evidence;
	// the atomic write replaces only the artifact's own path.
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
	if raw, err := os.ReadFile(r.Path); err == nil && serve.CheckCRC32C(raw, r.Size, r.CRC) != nil {
		if _, err := resilience.Quarantine(r.Path); err != nil {
			return fmt.Errorf("quarantining damaged bytes: %w", err)
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
