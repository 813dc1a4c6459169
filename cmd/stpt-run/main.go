// Command stpt-run executes STPT (or a baseline) on a CSV dataset and
// writes the sanitised consumption matrix as CSV (one row per cell:
// x,y,t,value). With -eval it also reports per-class query MRE.
//
// Usage:
//
//	stpt-datagen -dataset CA -grid 16 -hours 60 > ca.csv
//	stpt-run -in ca.csv -ttrain 30 -alg stpt -eval
//	stpt-run -in ca.csv -ttrain 30 -alg identity -eps 30 -eval
//
// With -ledger, every release durably charges its ε to a crash-safe
// budget ledger first, and -budget sets the lifetime ε per dataset
// beyond which stpt-run refuses to release (non-zero exit, no output).
// A ledger has one writer: while another process (a stpt-pipeline
// daemon, say) holds the file, the release is refused the same way.
// stpt-run opens the ledger before it runs the algorithm, so either
// refusal comes before any work.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/dp"
	"repro/internal/grid"
	"repro/internal/parallel"
	"repro/internal/query"
)

func main() {
	var (
		in       = flag.String("in", "", "input CSV (from stpt-datagen); required")
		out      = flag.String("o", "", "output CSV of the sanitised matrix (default stdout)")
		alg      = flag.String("alg", "stpt", "algorithm: stpt|"+strings.Join(baselines.Names(), "|"))
		tTrain   = flag.Int("ttrain", 100, "training prefix length")
		epsP     = flag.Float64("eps-pattern", 10, "STPT pattern budget")
		epsS     = flag.Float64("eps-sanitize", 20, "STPT sanitisation budget")
		eps      = flag.Float64("eps", 30, "total budget for baselines")
		depth    = flag.Int("depth", 5, "STPT quadtree depth")
		ws       = flag.Int("window", 6, "STPT window size")
		k        = flag.Int("k", 8, "STPT quantization levels")
		clip     = flag.Float64("clip", 0, "sensitivity clipping factor (0 = dataset max)")
		model    = flag.String("model", "attentive-gru", "STPT model: rnn|gru|lstm|attentive-gru|transformer|persistence")
		epochs   = flag.Int("epochs", 8, "training epochs")
		seed     = flag.Int64("seed", 1, "random seed")
		evalFlag = flag.Bool("eval", false, "report per-class query MRE against the truth")
		queries  = flag.Int("queries", 300, "queries per class when evaluating")
		timeout  = flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
		workers  = flag.Int("workers", 0, "worker pool size for STPT's parallel stages (0 = GOMAXPROCS; 1 = the historical serial path, bit-identical to earlier releases)")
		ledgerP  = flag.String("ledger", "", "privacy-budget ledger file; every release appends its spend and over-budget releases are refused")
		budget   = flag.Float64("budget", 0, "lifetime ε budget per dataset enforced through -ledger (0 = record only, never refuse)")
		dataset  = flag.String("dataset", "", "dataset name charged in the ledger (default: the -in file name)")
	)
	flag.Parse()
	if *in == "" {
		fatalf("missing -in")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	f, err := os.Open(*in)
	if err != nil {
		fatalf("%v", err)
	}
	d, err := datasets.LoadCSV(bufio.NewReader(f), *in, 0, 0)
	f.Close()
	if err != nil {
		fatalf("%v", err)
	}
	if d.T() <= *tTrain {
		fatalf("dataset has %d readings; -ttrain %d leaves no release horizon", d.T(), *tTrain)
	}

	// Opening the ledger takes its one-writer lock, and a request the
	// budget cannot cover is refused here, before the run. The charge
	// after the run goes through the same handle and is the check that
	// counts.
	var led *dp.Ledger
	var entry dp.LedgerEntry
	if *ledgerP != "" {
		entry = dp.LedgerEntry{Dataset: *dataset, Algorithm: *alg}
		if entry.Dataset == "" {
			entry.Dataset = filepath.Base(*in)
		}
		if *alg == "stpt" {
			entry.EpsPattern, entry.EpsSanitize = *epsP, *epsS
		} else {
			entry.EpsSanitize = *eps // baselines spend their whole ε on sanitisation
		}
		if led, err = openLedger(*ledgerP, entry, *budget); err != nil {
			fatalRefusal(err)
		}
		defer led.Close()
	}

	clipFactor := *clip
	if clipFactor <= 0 {
		_, clipFactor = d.GlobalMinMax()
	}

	var release, truth *grid.Matrix
	truth = baselines.Input{Dataset: d, TTrain: *tTrain, CellSensitivity: clipFactor}.Truth()

	if *alg == "stpt" {
		cfg := core.DefaultConfig()
		cfg.EpsPattern = *epsP
		cfg.EpsSanitize = *epsS
		cfg.TTrain = *tTrain
		cfg.Depth = *depth
		cfg.WindowSize = *ws
		cfg.QuantLevels = *k
		cfg.ClipFactor = clipFactor
		cfg.Train.Epochs = *epochs
		cfg.Seed = *seed
		cfg.Workers = parallel.Workers(*workers)
		if cfg.Model, err = parseModel(*model); err != nil {
			fatalf("%v", err)
		}
		res, err := core.RunContext(ctx, d, cfg)
		if err != nil {
			fatalCtx(err, *timeout)
		}
		release = res.Sanitized
		fmt.Fprintf(os.Stderr, "stpt-run: ε_tot=%.3g, %d partitions, pattern MAE %.4f RMSE %.4f\n",
			cfg.EpsTotal(), res.Partitions, res.PatternMAE, res.PatternRMSE)
		if res.Recovery != nil && res.Recovery.Attempts > 1 {
			fmt.Fprintf(os.Stderr, "stpt-run: %s\n", res.Recovery)
		}
		fmt.Fprint(os.Stderr, res.Accountant.Report())
	} else {
		a, err := baselines.Lookup(*alg)
		if err != nil {
			fatalf("%v", err)
		}
		release, err = baselines.ReleaseContext(ctx, a, baselines.Input{Dataset: d, TTrain: *tTrain, CellSensitivity: clipFactor}, *eps, *seed)
		if err != nil {
			fatalCtx(err, *timeout)
		}
		fmt.Fprintf(os.Stderr, "stpt-run: %s released %dx%dx%d matrix at ε=%.3g\n",
			a.Name(), release.Cx, release.Cy, release.Ct, *eps)
	}

	if *evalFlag {
		for _, c := range query.Classes() {
			qs := query.GenerateSeeded(query.ClassSeed(*seed, c), c, truth.Cx, truth.Cy, truth.Ct, *queries)
			fmt.Fprintf(os.Stderr, "stpt-run: %-6s queries MRE %.2f%%\n", c,
				query.Evaluate(truth, release, qs, 0, parallel.Workers(*workers)))
		}
	}

	// The ledger charge comes strictly before the release leaves the
	// process: a crash between the two over-counts spending, which is the
	// safe direction for a privacy budget.
	if led != nil {
		if err := chargeLedger(ctx, led, *ledgerP, entry, *budget); err != nil {
			fatalRefusal(err)
		}
	}

	if *out != "" {
		// Atomic publication: a crash mid-write must leave the previous
		// release or the complete new one, never a torn file.
		if err := datasets.SaveMatrixCSVFile(ctx, *out, release); err != nil {
			fatalf("%v", err)
		}
	} else if err := datasets.SaveMatrixCSV(release, os.Stdout); err != nil {
		// The shared writer keeps this format and stpt-serve's loader in
		// lockstep; see datasets.LoadMatrixCSV.
		fatalf("%v", err)
	}
}

// openLedger opens the ledger at path, which takes its one-writer lock,
// and refuses with dp.ErrBudgetExhausted when entry would take its
// dataset past budget.
func openLedger(path string, entry dp.LedgerEntry, budget float64) (*dp.Ledger, error) {
	led, err := dp.OpenLedger(path)
	if err != nil {
		return nil, err
	}
	if err := led.Check(entry, budget); err != nil {
		led.Close()
		return nil, err
	}
	return led, nil
}

// chargeLedger durably records the release's spend through led,
// refusing with dp.ErrBudgetExhausted when the dataset's lifetime budget
// would be exceeded.
func chargeLedger(ctx context.Context, led *dp.Ledger, path string, entry dp.LedgerEntry, budget float64) error {
	if err := led.Charge(ctx, entry, budget); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "stpt-run: ledger %s: charged ε=%.3g to %q (lifetime ε=%.3g)\n",
		path, entry.Eps(), entry.Dataset, led.Spent(entry.Dataset))
	return nil
}

// fatalRefusal reports a ledger that refused the release.
func fatalRefusal(err error) {
	if errors.Is(err, dp.ErrBudgetExhausted) {
		fatalf("refusing to release: %v", err)
	}
	fatalf("%v", err)
}

// fatalCtx reports a run failure, naming the deadline when the cause was
// the -timeout budget rather than the pipeline itself.
func fatalCtx(err error, timeout time.Duration) {
	if errors.Is(err, context.DeadlineExceeded) {
		fatalf("aborted: exceeded -timeout %s", timeout)
	}
	if errors.Is(err, context.Canceled) {
		fatalf("aborted: interrupted")
	}
	fatalf("%v", err)
}

func parseModel(s string) (core.ModelKind, error) {
	for _, k := range []core.ModelKind{core.ModelRNN, core.ModelGRU, core.ModelLSTM,
		core.ModelAttentiveGRU, core.ModelTransformer, core.ModelPersistence} {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown model %q", s)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "stpt-run: "+format+"\n", args...)
	os.Exit(1)
}
