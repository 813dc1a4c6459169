// Command stpt-doctor is the offline cross-artifact integrity auditor
// and repair tool for a continual-release deployment. It proves the
// invariants no single artifact can witness alone — every published
// manifest window has an on-disk release with the journalled checksum,
// the ledger's spent ε equals the tree composition's expected spend for
// the manifest tip, WAL coverage is gapless up to the snapshot
// high-water, and (given a peer) every catalog file's local bytes match
// the peer's catalog — then prints the findings as a typed repair plan.
// The per-file checks are the ones the daemons' background scrubbers
// run (scrub.PipelineTargets, one release target per catalog file);
// the doctor adds the relational checks on top.
//
//	stpt-doctor -out data/out -ledger data/ledger -wal data/feed.wal \
//	            -dataset stream -eps-node 0.5            # read-only audit
//	stpt-doctor -out data/out ... -repair                # execute the plan
//	stpt-doctor -peer http://leader:8080 -data-dir data  # replica audit
//
// Exit status: 0 when every configured invariant holds (after repair,
// if requested), 1 when error findings remain, 2 on usage or audit
// failure. Read-only by default, so it is safe in CI and against live
// daemons: journals are scanned without truncation and window files
// without locks.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"repro/internal/scrub"
)

func main() {
	var (
		out         = flag.String("out", "", "pipeline output directory (window files, latest.csv, staging/)")
		manifest    = flag.String("manifest", "", "window manifest path (default <out>/manifest when -out is set)")
		ledger      = flag.String("ledger", "", "ε-ledger path")
		dataset     = flag.String("dataset", "stream", "ledger dataset name the pipeline charges")
		epsNode     = flag.Float64("eps-node", 0, "per-tree-node ε the pipeline was run with (enables the spend invariant)")
		sensitivity = flag.Float64("sensitivity", 1, "per-cell L1 sensitivity (parameterises release rebuilds)")
		wal         = flag.String("wal", "", "ingest WAL path (enables gapless-coverage proof)")
		peer        = flag.String("peer", "", "healthy replica base URL, e.g. http://host:8080 (enables replica checks)")
		dataDir     = flag.String("data-dir", "", "local release directory audited against -peer's catalog")
		repair      = flag.Bool("repair", false, "execute the repair plan, then re-audit to confirm clean")
		asJSON      = flag.Bool("json", false, "emit the report as JSON")
	)
	flag.Parse()

	if *manifest == "" && *out != "" {
		*manifest = filepath.Join(*out, "manifest")
	}
	cfg := scrub.FsckConfig{
		OutDir:      *out,
		Manifest:    *manifest,
		Ledger:      *ledger,
		Dataset:     *dataset,
		EpsNode:     *epsNode,
		Sensitivity: *sensitivity,
		WAL:         *wal,
		Peer:        *peer,
		DataDir:     *dataDir,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep, err := scrub.Fsck(ctx, cfg)
	if err != nil {
		fatalf("%v", err)
	}
	if *repair && rep.Errors() > 0 {
		applied, err := scrub.Apply(ctx, cfg, rep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stpt-doctor: repair stopped after %d step(s): %v\n", applied, err)
		} else {
			fmt.Fprintf(os.Stderr, "stpt-doctor: applied %d repair(s); re-auditing\n", applied)
		}
		// Always re-audit: the exit status reports the state the disk is
		// actually in, not the state the plan promised.
		if rep, err = scrub.Fsck(ctx, cfg); err != nil {
			fatalf("%v", err)
		}
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatalf("%v", err)
		}
	} else {
		printReport(rep)
	}
	if rep.Errors() > 0 {
		os.Exit(1)
	}
}

func printReport(rep *scrub.Report) {
	fmt.Printf("stpt-doctor: %d invariant(s) checked, %d finding(s) (%d error(s))\n",
		rep.Checked, len(rep.Findings), rep.Errors())
	for _, f := range rep.Findings {
		fmt.Printf("  [%s] %s %s: %s\n", f.Severity, f.Code, f.Artifact, f.Detail)
		if f.Repair != nil {
			fmt.Printf("        repair: %s", f.Repair.Kind)
			if f.Repair.Source != "" {
				fmt.Printf(" from %s", f.Repair.Source)
			}
			fmt.Println()
		}
	}
	if rep.Errors() == 0 {
		fmt.Println("stpt-doctor: all checked invariants hold")
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "stpt-doctor: "+format+"\n", args...)
	os.Exit(2)
}
