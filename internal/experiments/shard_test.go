package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/journal"
	"repro/internal/query"
	"repro/internal/resilience"
)

func TestParseShard(t *testing.T) {
	if s, err := ParseShard("2/3"); err != nil || s != (Shard{I: 2, N: 3}) {
		t.Fatalf("ParseShard(2/3) = %+v, %v", s, err)
	}
	for _, bad := range []string{"", "1", "3/3", "-1/2", "0/0", "a/2", "0/b", "0/2/1"} {
		if _, err := ParseShard(bad); err == nil {
			t.Fatalf("%q parsed", bad)
		}
	}
}

// TestShardsPartitionCells: for every shard count, the shards' cells
// are the serial sweep's cells, each key in exactly one shard.
func TestShardsPartitionCells(t *testing.T) {
	o := micro()
	o.Reps = 3
	for _, exp := range []string{"fig6", "ldp"} {
		keys := serialKeys(t, o, exp, "", "")
		for n := 1; n <= 4; n++ {
			owners := map[string]int{}
			for i := 0; i < n; i++ {
				for _, key := range keys {
					if (Shard{I: i, N: n}).Owns(key) {
						owners[key]++
					}
				}
			}
			if len(owners) != len(keys) {
				t.Fatalf("%s, %d shards: the shards own %d of %d cells", exp, n, len(owners), len(keys))
			}
			for key, k := range owners {
				if k != 1 {
					t.Fatalf("%s, %d shards: %s is owned by %d shards", exp, n, key, k)
				}
			}
		}
	}
}

// runSweep runs a comparison sweep the way stpt-bench does; dataset and
// layout select fig6-single's row.
func runSweep(ctx context.Context, o Options, exp, dataset, layout string) ([]Row, error) {
	if exp != "fig6-single" {
		return RunComparison(ctx, o, exp)
	}
	spec, err := datasets.ByName(dataset)
	if err != nil {
		return nil, err
	}
	lay, err := datasets.ParseLayout(layout)
	if err != nil {
		return nil, err
	}
	row, err := RunFig6Single(ctx, o, spec, lay)
	return []Row{row}, err
}

// serialKeys runs a sweep serially into a memory checkpoint and returns
// the keys of the cells it recorded.
func serialKeys(t *testing.T, o Options, exp, dataset, layout string) []string {
	t.Helper()
	o.Checkpoint = journal.NewMemoryCheckpoint()
	if _, err := runSweep(context.Background(), o, exp, dataset, layout); err != nil {
		t.Fatal(err)
	}
	return o.Checkpoint.Keys()
}

// openBound opens the checkpoint at path and binds it to o, as
// stpt-bench does for every -checkpoint file.
func openBound(t *testing.T, path string, o Options) (*journal.Checkpoint, int) {
	t.Helper()
	ck, err := journal.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ck.Close() })
	n, err := BindCheckpoint(ck, o)
	if err != nil {
		t.Fatal(err)
	}
	return ck, n
}

// concat writes the files at paths, in order, to one new file.
func concat(t *testing.T, out string, paths ...string) {
	t.Helper()
	var all []byte
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, raw...)
	}
	if err := os.WriteFile(out, all, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestShardedSweepReducesToSerialRows: a sweep run shard by shard into
// separate files, each shard on a worker pool, concatenated in reverse
// shard order and reduced, returns the serial run's rows with no cell
// recomputed.
func TestShardedSweepReducesToSerialRows(t *testing.T) {
	for _, tc := range []struct {
		exp, dataset, layout string
		shards               int
	}{
		{"fig6-single", "CA", "uniform", 2},
		{"ldp", "", "", 3},
	} {
		t.Run(tc.exp, func(t *testing.T) {
			o := micro()
			o.Reps = 2
			serial := o
			serial.Checkpoint = journal.NewMemoryCheckpoint()
			want, err := runSweep(context.Background(), serial, tc.exp, tc.dataset, tc.layout)
			if err != nil {
				t.Fatal(err)
			}
			keys := serial.Checkpoint.Keys()

			dir := t.TempDir()
			var parts []string
			for i := 0; i < tc.shards; i++ {
				shard := Shard{I: i, N: tc.shards}
				path := filepath.Join(dir, fmt.Sprintf("part-%d", i))
				so := o
				so.Workers = 3
				so.Checkpoint, _ = openBound(t, path, o)
				n, err := RunShard(context.Background(), so, tc.exp, tc.dataset, tc.layout, shard)
				if err != nil {
					t.Fatalf("shard %d: %v", i, err)
				}
				var owned []string
				for _, key := range keys {
					if shard.Owns(key) {
						owned = append(owned, key)
					}
				}
				if n != len(owned) {
					t.Fatalf("shard %d computed %d cells, owns %d", i, n, len(owned))
				}
				for _, key := range so.Checkpoint.Keys() {
					if key != optionsKey && !shard.Owns(key) {
						t.Fatalf("shard %d recorded %s, which it does not own", i, key)
					}
				}
				parts = append([]string{path}, parts...) // reverse shard order
			}
			all := filepath.Join(dir, "all")
			concat(t, all, parts...)

			ro := o
			var cells int
			ro.Checkpoint, cells = openBound(t, all, o)
			if cells != len(keys) {
				t.Fatalf("concatenated shards hold %d cells, the sweep has %d", cells, len(keys))
			}
			got, err := runSweep(context.Background(), ro, tc.exp, tc.dataset, tc.layout)
			if err != nil {
				t.Fatal(err)
			}
			// The reduction computed nothing, so its timings are zero;
			// the serial run's are not, and are not part of a table.
			for i := range want {
				for j := range want[i].Results {
					want[i].Results[j].Seconds = 0
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("reduced rows %+v\nserial rows %+v", got, want)
			}
		})
	}
}

// TestShardResumesFromItsOwnFile: a shard that dies mid-run leaves its
// completed cells in its file, and rerunning it computes only the rest.
func TestShardResumesFromItsOwnFile(t *testing.T) {
	o := micro()
	o.Reps = 2
	shard := Shard{I: 0, N: 1}
	path := filepath.Join(t.TempDir(), "part-0")
	so := o
	so.Checkpoint, _ = openBound(t, path, o)
	recorded := 0
	crash := resilience.NewInjector().On(resilience.FaultCheckpoint, func(context.Context, any) error {
		if recorded == 3 {
			return errors.New("killed")
		}
		recorded++
		return nil
	})
	if _, err := RunShard(resilience.WithInjector(context.Background(), crash), so, "fig6-single", "CA", "uniform", shard); err == nil {
		t.Fatal("the injected crash did not stop the shard")
	}
	so.Checkpoint.Close()

	so.Checkpoint, _ = openBound(t, path, o)
	n, err := RunShard(context.Background(), so, "fig6-single", "CA", "uniform", shard)
	if err != nil {
		t.Fatal(err)
	}
	keys := serialKeys(t, o, "fig6-single", "CA", "uniform")
	if n != len(keys)-3 {
		t.Fatalf("resumed shard computed %d cells, want the %d the first run left", n, len(keys)-3)
	}
}

// TestShardRetriesLikeSerial: a shard retries a failed baseline release
// under Options.Retry with the serial sweep's jittered seed, so the cell
// it records is the serial sweep's.
func TestShardRetriesLikeSerial(t *testing.T) {
	o := micro()
	o.Retry = resilience.DefaultPolicy()
	failFirstIdentity := func() *resilience.Injector {
		failed := false
		return resilience.NewInjector().On(resilience.FaultRelease, func(_ context.Context, payload any) error {
			if payload == "identity" && !failed {
				failed = true
				return resilience.MarkRetryable(errors.New("transient release failure"))
			}
			return nil
		})
	}
	const key = "fig6/CA/uniform/identity/rep0"

	serial := o
	serial.Checkpoint = journal.NewMemoryCheckpoint()
	if _, err := runSweep(resilience.WithInjector(context.Background(), failFirstIdentity()), serial, "fig6-single", "CA", "uniform"); err != nil {
		t.Fatal(err)
	}
	sharded := o
	sharded.Checkpoint = journal.NewMemoryCheckpoint()
	if _, err := RunShard(resilience.WithInjector(context.Background(), failFirstIdentity()), sharded, "fig6-single", "CA", "uniform", Shard{I: 0, N: 1}); err != nil {
		t.Fatal(err)
	}
	var want, got mreCell
	if !serial.Checkpoint.Lookup(key, &want) || !sharded.Checkpoint.Lookup(key, &got) {
		t.Fatalf("%s missing from a checkpoint", key)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shard recorded %+v after the retry, serial sweep %+v", got, want)
	}
}

// TestBindCheckpointRefusesMixedOptions: shards run under different
// options and then concatenated are refused whichever options line comes
// last, naming both option sets; shards that agree bind.
func TestBindCheckpointRefusesMixedOptions(t *testing.T) {
	dir := t.TempDir()
	cell := encodeMRE(map[query.Class]float64{query.Random: 1})
	part := func(name string, seed int64, key string) string {
		o := micro()
		o.Seed = seed
		path := filepath.Join(dir, name)
		ck, _ := openBound(t, path, o)
		if err := ck.Record(key, cell); err != nil {
			t.Fatal(err)
		}
		return path
	}
	seed1 := part("seed1", 1, "fig6/CA/uniform/stpt/rep0")
	seed2 := part("seed2", 2, "fig6/CA/uniform/identity/rep0")
	again1 := part("again1", 1, "fig6/CA/uniform/identity/rep0")

	o := micro()
	o.Seed = 2
	mixed := filepath.Join(dir, "mixed")
	concat(t, mixed, seed1, seed2)
	ck, err := journal.OpenCheckpoint(mixed)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	before, _ := os.ReadFile(mixed)
	_, err = BindCheckpoint(ck, o)
	if err == nil || !strings.Contains(err.Error(), `"seed":1`) || !strings.Contains(err.Error(), `"seed":2`) {
		t.Fatalf("mixed options: err = %v, want a refusal naming both option sets", err)
	}
	if after, _ := os.ReadFile(mixed); !bytes.Equal(before, after) {
		t.Fatal("refusing a mixed checkpoint changed the file")
	}

	agreeing := filepath.Join(dir, "agreeing")
	concat(t, agreeing, again1, seed1)
	if _, n := openBound(t, agreeing, micro()); n != 2 {
		t.Fatalf("agreeing shards hold %d cells, want 2", n)
	}
}

// TestShardOfOneWritesSerialCheckpoint: for every sweep shards split, the
// one shard of one at one worker writes the serial sweep's checkpoint
// file byte for byte, so a shard keys, computes and records each cell as
// the serial sweep does.
func TestShardOfOneWritesSerialCheckpoint(t *testing.T) {
	for _, tc := range []struct {
		name, exp, dataset, layout string
	}{
		{"fig6-single-CA-uniform", "fig6-single", "CA", "uniform"},
		{"fig6-single-CER-losangeles", "fig6-single", "CER", "losangeles"},
		{"fig7", "fig7", "", ""},
		{"ldp", "ldp", "", ""},
		{"extended", "extended", "", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := micro()
			o.Reps = 2
			o.Workers = 1
			dir := t.TempDir()
			serialPath, shardPath := filepath.Join(dir, "serial"), filepath.Join(dir, "shard")

			serial := o
			serial.Checkpoint, _ = openBound(t, serialPath, o)
			if _, err := runSweep(context.Background(), serial, tc.exp, tc.dataset, tc.layout); err != nil {
				t.Fatal(err)
			}
			sharded := o
			sharded.Checkpoint, _ = openBound(t, shardPath, o)
			n, err := RunShard(context.Background(), sharded, tc.exp, tc.dataset, tc.layout, Shard{I: 0, N: 1})
			if err != nil {
				t.Fatal(err)
			}
			if cells := serial.Checkpoint.Len() - 1; n != cells {
				t.Fatalf("shard computed %d cells, the serial sweep %d", n, cells)
			}
			want, err := os.ReadFile(serialPath)
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(shardPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("shard 0/1 wrote\n%s\nthe serial sweep wrote\n%s", got, want)
			}
		})
	}
}

// TestShardRefusesNonComparisonSweeps: only the comparison sweeps split
// into shards. Any other experiment, and a fig6-single row naming an
// unknown dataset or layout, is refused by CheckShardable and by
// RunShard alike, before any cell runs.
func TestShardRefusesNonComparisonSweeps(t *testing.T) {
	for _, tc := range []struct{ exp, dataset, layout, want string }{
		{"fig8c", "", "", "not a comparison sweep"},
		{"table2", "", "", "not a comparison sweep"},
		{"fig9", "", "", "not a comparison sweep"},
		{"ablations", "", "", "not a comparison sweep"},
		{"all", "", "", "not a comparison sweep"},
		{"", "", "", "not a comparison sweep"},
		{"fig6-single", "NOPE", "uniform", "NOPE"},
		{"fig6-single", "CER", "sideways", "sideways"},
	} {
		err := CheckShardable(tc.exp, tc.dataset, tc.layout)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("CheckShardable(%q, %q, %q) = %v, want an error naming %q", tc.exp, tc.dataset, tc.layout, err, tc.want)
		}
		o := micro()
		o.Checkpoint = journal.NewMemoryCheckpoint()
		_, rerr := RunShard(context.Background(), o, tc.exp, tc.dataset, tc.layout, Shard{I: 0, N: 1})
		if rerr == nil || rerr.Error() != err.Error() || o.Checkpoint.Len() != 0 {
			t.Fatalf("RunShard(%q, %q, %q): err = %v with %d cells recorded, want %v and none", tc.exp, tc.dataset, tc.layout, rerr, o.Checkpoint.Len(), err)
		}
	}
}

// TestBindCheckpoint: a checkpoint is bound to the output-affecting
// options of the run that created it. A run under different options is
// refused (it would be served stale cells), a run differing only in
// process-local knobs or the rep count resumes, and a non-empty file
// with no options record cannot be matched to any options.
func TestBindCheckpoint(t *testing.T) {
	o := micro()
	path := filepath.Join(t.TempDir(), "sweep.json")
	ck, err := journal.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := BindCheckpoint(ck, o); err != nil || n != 0 {
		t.Fatalf("fresh checkpoint: n = %d, err = %v", n, err)
	}
	cell := encodeMRE(map[query.Class]float64{query.Random: 1})
	if err := ck.Record("fig6/CA/uniform/stpt/rep0", cell); err != nil {
		t.Fatal(err)
	}
	ck.Close()
	ck, err = journal.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !ck.Lookup(optionsKey, nil) {
		t.Fatal("fresh checkpoint did not record its options")
	}

	for name, mut := range map[string]func(*Options){
		"seed":       func(o *Options) { o.Seed++ },
		"cx":         func(o *Options) { o.Cx *= 2 },
		"households": func(o *Options) { o.Households++ },
	} {
		other := o
		mut(&other)
		_, err := BindCheckpoint(ck, other)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf(`"seed":%d`, o.Seed)) ||
			!strings.Contains(err.Error(), fmt.Sprintf(`"seed":%d`, other.Seed)) {
			t.Fatalf("different %s: err = %v, want a mismatch naming both option sets", name, err)
		}
	}
	for name, mut := range map[string]func(*Options){
		"workers": func(o *Options) { o.Workers = 4 },
		"reps":    func(o *Options) { o.Reps = 3 },
		"retry":   func(o *Options) { o.Retry = resilience.DefaultPolicy() },
	} {
		other := o
		mut(&other)
		n, err := BindCheckpoint(ck, other)
		if err != nil {
			t.Fatalf("different %s: %v", name, err)
		}
		if n != 1 {
			t.Fatalf("different %s: %d completed cells, want 1 (reserved entries excluded)", name, n)
		}
	}

	legacy := journal.NewMemoryCheckpoint()
	if err := legacy.Record("fig6/CA/uniform/stpt/rep0", cell); err != nil {
		t.Fatal(err)
	}
	if _, err := BindCheckpoint(legacy, o); err == nil {
		t.Fatal("a non-empty checkpoint without an options record was accepted")
	}
	if legacy.Lookup(optionsKey, nil) {
		t.Fatal("refusing a legacy checkpoint recorded options into it")
	}
}

// TestBindCheckpointKeepsRecordedLine pins the options record's bytes: a
// fresh checkpoint bound to Quick() holds exactly the line earlier builds
// wrote, and a file holding that line binds, so the checkpoints of
// sweeps already running still resume.
func TestBindCheckpointKeepsRecordedLine(t *testing.T) {
	const line = `687cf21f {"key":"experiments:options","val":{"cx":16,"cy":16,"t_train":40,"horizon":48,"depth":3,"window_size":4,"quant_levels":8,"embed_dim":8,"hidden":8,"epochs":4,"eps_pattern":10,"eps_sanitize":20,"queries":100,"seed":1,"households":300}}` + "\n"
	dir := t.TempDir()
	fresh := filepath.Join(dir, "fresh")
	openBound(t, fresh, Quick())
	if raw, err := os.ReadFile(fresh); err != nil || string(raw) != line {
		t.Fatalf("a fresh checkpoint holds %q (err %v), want %q", raw, err, line)
	}
	recorded := filepath.Join(dir, "recorded")
	if err := os.WriteFile(recorded, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, n := openBound(t, recorded, Quick()); n != 0 {
		t.Fatalf("the recorded line binds with %d cells, want 0", n)
	}
}
