package ingest

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/grid"
)

// readingsCSV renders readings as the wire format.
func readingsCSV(rs []Reading) string {
	var sb strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&sb, "%d,%d,%d,%g\n", r.X, r.Y, r.T, r.V)
	}
	return sb.String()
}

// genReadings builds n deterministic valid readings for a cx×cy×ct box.
func genReadings(n, cx, cy, ct int, seed int64) []Reading {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Reading, n)
	for i := range out {
		out[i] = Reading{
			X: rng.Intn(cx), Y: rng.Intn(cy), T: rng.Intn(ct),
			V: float64(rng.Intn(1000)) / 16, // exact in float64: replay compares bit-for-bit
		}
	}
	return out
}

func matrixOf(readings []Reading, cx, cy, ct int) *grid.Matrix {
	m := grid.NewMatrix(cx, cy, ct)
	for _, r := range readings {
		m.AddAt(r.X, r.Y, r.T, r.V)
	}
	return m
}

func matricesEqual(a, b *grid.Matrix) bool {
	if a.Cx != b.Cx || a.Cy != b.Cy || a.Ct != b.Ct {
		return false
	}
	for i := range a.Data() {
		if a.Data()[i] != b.Data()[i] {
			return false
		}
	}
	return true
}

// TestIngestQuarantinesMalformed: malformed lines land in the dead
// letter with line numbers and reasons, valid lines keep flowing, and
// the stream never aborts.
func TestIngestQuarantinesMalformed(t *testing.T) {
	var dead bytes.Buffer
	in, err := New(Config{Cx: 4, Cy: 4, Ct: 8, BatchSize: 2, DeadLetter: &dead},
		filepath.Join(t.TempDir(), "q.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()

	input := strings.Join([]string{
		"x,y,t,value",     // header: skipped, not quarantined
		"0,0,0,1.5",       // ok
		"not,a,record",    // 3 fields
		"1,1,1,2.5",       // ok
		"9,0,0,1",         // x out of range
		"0,9,0,1",         // y out of range
		"0,0,99,1",        // t out of range
		"0,0,0,NaN",       // non-finite
		"0,0,0,-3",        // negative consumption
		"a,0,0,1",         // non-integer x
		"2,2,2,notafloat", // bad value
		"",                // blank: skipped silently
		"3,3,7,4.25",      // ok
	}, "\n")
	accepted, quarantined, err := in.Ingest(context.Background(), strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 3 || quarantined != 8 {
		t.Fatalf("accepted=%d quarantined=%d, want 3/8", accepted, quarantined)
	}

	var recs []DeadLetterRecord
	dec := json.NewDecoder(&dead)
	for dec.More() {
		var r DeadLetterRecord
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	if len(recs) != 8 {
		t.Fatalf("%d dead-letter records, want 8", len(recs))
	}
	if recs[0].Line != 3 || recs[0].Raw != "not,a,record" || !strings.Contains(recs[0].Reason, "fields") {
		t.Errorf("first dead letter = %+v", recs[0])
	}
	for _, r := range recs {
		if r.Reason == "" || r.Raw == "" || r.Line == 0 {
			t.Errorf("incomplete dead-letter record %+v", r)
		}
	}

	want := matrixOf([]Reading{{0, 0, 0, 1.5}, {1, 1, 1, 2.5}, {3, 3, 7, 4.25}}, 4, 4, 8)
	if !matricesEqual(in.Snapshot(), want) {
		t.Error("matrix does not match the accepted readings")
	}
}

// TestIngestCrashReplayIdentical is the core durability property in
// process form: drop the ingester at an arbitrary point (no Close, no
// flush beyond what Ingest acknowledged) and a fresh ingester over the
// same WAL rebuilds the byte-identical matrix.
func TestIngestCrashReplayIdentical(t *testing.T) {
	const cx, cy, ct = 6, 5, 12
	wal := filepath.Join(t.TempDir(), "crash.wal")
	readings := genReadings(1000, cx, cy, ct, 7)

	in, err := New(Config{Cx: cx, Cy: cy, Ct: ct, BatchSize: 32}, wal)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := in.Ingest(context.Background(), strings.NewReader(readingsCSV(readings))); err != nil {
		t.Fatal(err)
	}
	before := in.Snapshot()
	// Simulated crash: the ingester is abandoned. The kernel closes a
	// killed process's file; Close does only that (it flushes nothing).
	in.Close()

	re, err := New(Config{Cx: cx, Cy: cy, Ct: ct, BatchSize: 32}, wal)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !matricesEqual(re.Snapshot(), before) {
		t.Fatal("replayed matrix differs from the pre-crash matrix")
	}
	if got := re.Stats(); got.Replayed != 1000 {
		t.Fatalf("replayed %d readings, want 1000", got.Replayed)
	}
	// Byte-identical snapshot, the acceptance criterion's framing.
	var a, b bytes.Buffer
	if err := datasets.SaveMatrixCSV(before, &a); err != nil {
		t.Fatal(err)
	}
	if err := datasets.SaveMatrixCSV(re.Snapshot(), &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("snapshot CSV bytes differ after replay")
	}
}

// TestIngestWALDimensionMismatch: a WAL recorded under different matrix
// dimensions must refuse to replay rather than scribble out of range or
// silently drop readings.
func TestIngestWALDimensionMismatch(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "dims.wal")
	in, err := New(Config{Cx: 8, Cy: 8, Ct: 8}, wal)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := in.Ingest(context.Background(), strings.NewReader("7,7,7,1\n")); err != nil {
		t.Fatal(err)
	}
	in.Close()
	if _, err := New(Config{Cx: 4, Cy: 4, Ct: 4}, wal); err == nil {
		t.Fatal("replayed an 8x8x8 WAL into a 4x4x4 matrix")
	}
}

// TestIngestBatchBoundaries: batch commits happen exactly at BatchSize
// and the tail flush covers the remainder.
func TestIngestBatchBoundaries(t *testing.T) {
	in, err := New(Config{Cx: 4, Cy: 4, Ct: 4, BatchSize: 3}, filepath.Join(t.TempDir(), "b.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	readings := genReadings(7, 4, 4, 4, 1)
	if _, _, err := in.Ingest(context.Background(), strings.NewReader(readingsCSV(readings))); err != nil {
		t.Fatal(err)
	}
	if got := in.Stats(); got.Batches != 3 || got.Accepted != 7 {
		t.Fatalf("stats = %+v, want 3 batches / 7 accepted", got)
	}
}

// TestHighWaterAndCutWindow: the window-cut API the pipeline builds on.
// HighWater tracks the newest committed interval across live ingest,
// WAL replay, and snapshot-compaction restore; CutWindow freezes an
// exact [t0,t1) sub-matrix of committed data.
func TestHighWaterAndCutWindow(t *testing.T) {
	const cx, cy, ct = 3, 2, 8
	dir := t.TempDir()
	wal := filepath.Join(dir, "hw.wal")
	in, err := New(Config{Cx: cx, Cy: cy, Ct: ct, BatchSize: 4}, wal)
	if err != nil {
		t.Fatal(err)
	}
	if got := in.HighWater(); got != 0 {
		t.Fatalf("fresh HighWater = %d, want 0", got)
	}

	readings := []Reading{{0, 0, 0, 1.5}, {2, 1, 3, 2.25}, {1, 0, 1, 4}}
	if _, _, err := in.Ingest(context.Background(), strings.NewReader(readingsCSV(readings))); err != nil {
		t.Fatal(err)
	}
	if got := in.HighWater(); got != 4 {
		t.Fatalf("HighWater = %d after a reading at t=3, want 4", got)
	}

	// CutWindow freezes exactly the requested intervals.
	cut, err := in.CutWindow(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := matrixOf([]Reading{{0, 0, 0, 1.5}, {1, 0, 1, 4}}, cx, cy, 2)
	if !matricesEqual(cut, want) {
		t.Fatal("CutWindow(0,2) does not match the committed readings")
	}
	// The cut is a copy: later arrivals must not mutate it.
	if _, _, err := in.Ingest(context.Background(), strings.NewReader("0,0,1,9\n")); err != nil {
		t.Fatal(err)
	}
	if !matricesEqual(cut, want) {
		t.Fatal("a cut window changed after later ingest")
	}

	// Out-of-range windows refuse.
	for _, bad := range [][2]int{{-1, 2}, {2, 2}, {3, 1}, {0, ct + 1}} {
		if _, err := in.CutWindow(bad[0], bad[1]); err == nil {
			t.Errorf("CutWindow(%d,%d) accepted", bad[0], bad[1])
		}
	}

	// WAL replay restores the high-water mark.
	in.Close()
	re, err := New(Config{Cx: cx, Cy: cy, Ct: ct, BatchSize: 4}, wal)
	if err != nil {
		t.Fatal(err)
	}
	if got := re.HighWater(); got != 4 {
		t.Fatalf("HighWater = %d after WAL replay, want 4", got)
	}

	// Snapshot compaction folds the WAL away; a restore from the
	// snapshot must still report the mark.
	if err := re.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	re.Close()
	re2, err := New(Config{Cx: cx, Cy: cy, Ct: ct, BatchSize: 4}, wal)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if got := re2.HighWater(); got != 4 {
		t.Fatalf("HighWater = %d after snapshot restore, want 4", got)
	}
	cut2, err := re2.CutWindow(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !matricesEqual(cut2, matrixOf([]Reading{{0, 0, 0, 1.5}, {1, 0, 1, 4}, {0, 0, 1, 9}}, cx, cy, 2)) {
		t.Fatal("CutWindow after snapshot restore lost readings")
	}
}

// TestIngestBatchAllocations: a 256-line Ingest reuses the ingester's
// line buffer rather than allocating a fresh 64 KB one per call, so a
// batch allocates only its lines, their parse and its WAL record.
func TestIngestBatchAllocations(t *testing.T) {
	in, err := New(Config{Cx: 8, Cy: 8, Ct: 4}, filepath.Join(t.TempDir(), "feed.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	batch := readingsCSV(genReadings(256, 8, 8, 4, 7))
	ingest := func() {
		if acc, _, err := in.Ingest(context.Background(), strings.NewReader(batch)); err != nil || acc != 256 {
			t.Fatalf("ingest accepted %d of 256: %v", acc, err)
		}
	}
	ingest() // the first call allocates the buffer
	const calls = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		ingest()
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / calls; got >= 32<<10 {
		t.Fatalf("a 256-line batch allocates %d bytes, want under 32 KB", got)
	}
}

// oldIngestLines is Ingest's line handling before it parsed the scanner's
// bytes, kept verbatim as the differential oracle: it returns the readings
// the old code accepted and the dead-letter records it wrote.
func oldIngestLines(cfg Config, input string) (accepted []Reading, dead []DeadLetterRecord) {
	sc := bufio.NewScanner(strings.NewReader(input))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimRight(sc.Text(), "\r")
		if lineNo == 1 && line == "x,y,t,value" {
			continue // header row from a piped matrix CSV
		}
		if line == "" {
			continue
		}
		rec, perr := oldParseReading(cfg, line)
		if perr != nil {
			dead = append(dead, DeadLetterRecord{Line: lineNo, Reason: perr.Error(), Raw: line})
			continue
		}
		accepted = append(accepted, rec)
	}
	return accepted, dead
}

func oldParseReading(cfg Config, line string) (Reading, error) {
	var r Reading
	fields := strings.Split(line, ",")
	if len(fields) != 4 {
		return r, fmt.Errorf("%d fields, want 4 (x,y,t,value)", len(fields))
	}
	for i, dst := range []*int{&r.X, &r.Y, &r.T} {
		n, err := strconv.Atoi(strings.TrimSpace(fields[i]))
		if err != nil {
			return r, fmt.Errorf("%s=%q is not an integer", []string{"x", "y", "t"}[i], fields[i])
		}
		*dst = n
	}
	if r.X < 0 || r.X >= cfg.Cx || r.Y < 0 || r.Y >= cfg.Cy {
		return r, fmt.Errorf("location (%d,%d) outside the %dx%d grid", r.X, r.Y, cfg.Cx, cfg.Cy)
	}
	if r.T < 0 || r.T >= cfg.Ct {
		return r, fmt.Errorf("interval t=%d outside [0,%d)", r.T, cfg.Ct)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(fields[3]), 64)
	if err != nil {
		return r, fmt.Errorf("value %q is not a number", fields[3])
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return r, fmt.Errorf("non-finite value %q", fields[3])
	}
	if v < 0 {
		return r, fmt.Errorf("negative consumption %g", v)
	}
	r.V = v
	return r, nil
}

// TestIngestMatchesOldParser runs one stream through Ingest and through
// the old line handling: the accepted readings (value bits included), and
// each refused line's number, reason and raw text, must be identical.
func TestIngestMatchesOldParser(t *testing.T) {
	lines := []string{
		"x,y,t,value", // header
		"0,0,0,1.5",
		"1,2,3,4\r", // CRLF
		"1,2,3,4\r\r",
		"",
		"\r",
		"   ",
		"1,2,3",
		"1,2,3,4,5",
		",,,",
		"1,2,3,",
		" 1 , 2 ,\t3, 4.5 ",
		" 1,2,3,4 ",
		"+1,2,3,4",
		"007,0,0,1",
		"1,1,1,1e3",
		"1,1,1,1E-3",
		"0,0,0,-0",
		"0,0,0,+0",
		"0,0,0,NaN",
		"0,0,0,nan",
		"0,0,0,Inf",
		"0,0,0,-Inf",
		"0,0,0,+infinity",
		"0,0,0,1e400",
		"0,0,0,0x1p-2",
		"0,0,0,1_000",
		"0,0,0,-3",
		"0,0,0,-1e-300",
		"0,0,0,4 5",
		"0,0,0,1.00000000000000000000000000000000000000000001",
		"9,0,0,1",
		"0,9,0,1",
		"-1,0,0,1",
		"0,-1,0,1",
		"0,0,99,1",
		"0,0,-1,1",
		"0,0,-0,1",
		"a,0,0,1",
		"0,b,0,1",
		"0,0,c,1",
		"1.0,0,0,1",
		"0x1,0,0,1",
		"1_0,0,0,1",
		"99999999999999999999,0,0,1",
		"0,0,0,notafloat",
		"\"1\",0,0,1",
		"x,y,t,value", // a header past line 1 is a malformed reading
		"3,3,7,4.25",
	}
	for _, input := range []string{strings.Join(lines, "\n"), strings.Join(lines, "\r\n"), strings.Join(lines[1:], "\n") + "\n"} {
		cfg := Config{Cx: 4, Cy: 4, Ct: 8, BatchSize: 1000}
		wantAcc, wantDead := oldIngestLines(cfg, input)

		var dead bytes.Buffer
		cfg.DeadLetter = &dead
		path := filepath.Join(t.TempDir(), "feed.wal")
		in, err := New(cfg, path)
		if err != nil {
			t.Fatal(err)
		}
		acc, quar, err := in.Ingest(context.Background(), strings.NewReader(input))
		in.Close()
		if err != nil || acc != int64(len(wantAcc)) || quar != int64(len(wantDead)) {
			t.Fatalf("accepted %d, quarantined %d (%v); the old parser: %d and %d", acc, quar, err, len(wantAcc), len(wantDead))
		}
		var gotDead []DeadLetterRecord
		for dec := json.NewDecoder(&dead); dec.More(); {
			var r DeadLetterRecord
			if err := dec.Decode(&r); err != nil {
				t.Fatal(err)
			}
			gotDead = append(gotDead, r)
		}
		for i := range wantDead {
			if gotDead[i] != wantDead[i] {
				t.Errorf("dead letter %d = %+v, the old parser's %+v", i, gotDead[i], wantDead[i])
			}
		}
		var gotAcc []Reading
		w, err := OpenWALAfter(path, 0, func(batch []Reading) error {
			gotAcc = append(gotAcc, batch...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		w.Close()
		for i, want := range wantAcc {
			got := gotAcc[i]
			if got.X != want.X || got.Y != want.Y || got.T != want.T || math.Float64bits(got.V) != math.Float64bits(want.V) {
				t.Errorf("reading %d = %+v, the old parser's %+v", i, got, want)
			}
		}
	}
}

// TestIngestAllocsIndependentOfLines pins that a batch's allocations do
// not grow with its lines: each line is parsed from the scanner's bytes.
func TestIngestAllocsIndependentOfLines(t *testing.T) {
	in, err := New(Config{Cx: 8, Cy: 8, Ct: 4}, filepath.Join(t.TempDir(), "feed.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	allocs := func(lines int) float64 {
		batch := readingsCSV(genReadings(lines, 8, 8, 4, 7))
		ingest := func() {
			if acc, _, err := in.Ingest(context.Background(), strings.NewReader(batch)); err != nil || acc != int64(lines) {
				t.Fatalf("ingest accepted %d of %d: %v", acc, lines, err)
			}
		}
		ingest() // sizes the scanner buffer and the pending batch
		return testing.AllocsPerRun(10, ingest)
	}
	few, many := allocs(16), allocs(256)
	if many > few {
		t.Fatalf("a 256-line batch makes %v allocations, a 16-line one %v: want no growth with lines", many, few)
	}
}
