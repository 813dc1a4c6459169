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

// TestShardsPartitionWorkList: for every shard count, the shards' cells
// are the work list, each key in exactly one shard.
func TestShardsPartitionWorkList(t *testing.T) {
	o := micro()
	o.Reps = 3
	for _, exp := range []string{"fig6", "ldp"} {
		keys, err := NewSweepSpec(exp, "", "", o).WorkList()
		if err != nil {
			t.Fatal(err)
		}
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
			want, err := runSweep(context.Background(), o, tc.exp, tc.dataset, tc.layout)
			if err != nil {
				t.Fatal(err)
			}
			keys, err := NewSweepSpec(tc.exp, tc.dataset, tc.layout, o).WorkList()
			if err != nil {
				t.Fatal(err)
			}

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
	keys, _ := NewSweepSpec("fig6-single", "CA", "uniform", o).WorkList()
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
