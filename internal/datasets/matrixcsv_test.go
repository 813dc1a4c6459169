package datasets

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/grid"
)

// TestMatrixCSVRoundTrip: Save then Load must reproduce the matrix
// exactly, including negative (DP-noised) cells.
func TestMatrixCSVRoundTrip(t *testing.T) {
	m := grid.NewMatrix(3, 2, 4)
	for i := 0; i < m.Len(); i++ {
		m.Data()[i] = float64(i)*1.5 - 7 // includes negatives
	}
	var sb strings.Builder
	if err := SaveMatrixCSV(m, &sb); err != nil {
		t.Fatal(err)
	}
	got, err := LoadMatrixCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Cx != m.Cx || got.Cy != m.Cy || got.Ct != m.Ct {
		t.Fatalf("dimensions %dx%dx%d, want %dx%dx%d", got.Cx, got.Cy, got.Ct, m.Cx, m.Cy, m.Ct)
	}
	for i := range m.Data() {
		if got.Data()[i] != m.Data()[i] {
			t.Fatalf("cell %d: %g, want %g", i, got.Data()[i], m.Data()[i])
		}
	}
}

// TestLoadMatrixCSVRejects covers the refusal paths: malformed fields,
// non-finite values, out-of-range coordinates, and dimension blowups.
func TestLoadMatrixCSVRejects(t *testing.T) {
	cases := map[string]string{
		"empty":           "",
		"header-only":     "x,y,t,value\n",
		"wrong-header":    "a,b,c\n0,0,1\n",
		"household":       "x,y,v0,v1\n0,0,1,2\n",
		"renamed-column":  "x,y,t,v\n0,0,0,1\n",
		"short-row":       "x,y,t,value\n0,0,1\n",
		"long-row":        "x,y,t,value\n0,0,1,2,3\n",
		"bad-x":           "x,y,t,value\nleft,0,0,1\n",
		"bad-t":           "x,y,t,value\n0,0,soon,1\n",
		"negative-coord":  "x,y,t,value\n0,-1,0,1\n",
		"nan-value":       "x,y,t,value\n0,0,0,NaN\n",
		"inf-value":       "x,y,t,value\n0,0,0,+Inf\n",
		"huge-coord":      "x,y,t,value\n9999999,0,0,1\n",
		"cell-product":    "x,y,t,value\n1000000,0,0,1\n0,1000000,0,1\n0,0,1000000,1\n",
		"value-not-float": "x,y,t,value\n0,0,0,lots\n",
		"escaped-quote":   "x,y,t,value\n0,0,0,\"1\"\"5\"\n",
		"after-quote":     "x,y,t,value\n0,0,0,\"1\"5\n",
		"open-quote":      "x,y,t,value\n0,0,0,\"1\n5\"\n",
		"bare-quote":      "x,y,t,value\n0,0,0,1\"5\n",
		"inner-cr":        "x,y,t,value\n0,0,0,1\r\r\n",
		"space":           "x,y,t,value\n0, 0,0,1\n",
	}
	for name, c := range cases {
		if _, err := LoadMatrixCSV(strings.NewReader(c)); err == nil {
			t.Errorf("%s: accepted %q", name, c)
		}
		if _, err := loadMatrixCSVOracle(strings.NewReader(c)); err == nil {
			t.Errorf("%s: encoding/csv decoder accepted %q", name, c)
		}
	}
}

// TestLoadMatrixCSVRejectsDuplicates: SaveMatrixCSV writes each cell
// once, so a repeated (x,y,t) marks a corrupt or concatenated release;
// the error names both rows. A cell absent from the file is refused
// too: it marks a truncated or hand-edited one.
func TestLoadMatrixCSVRejectsDuplicates(t *testing.T) {
	in := "x,y,t,value\n0,0,0,1\n1,0,0,2.5\n1,0,0,1.5\n"
	_, err := LoadMatrixCSV(strings.NewReader(in))
	if err == nil {
		t.Fatal("duplicate cell accepted")
	}
	for _, frag := range []string{"duplicate", "(1,0,0)", "row 4", "row 3"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not mention %q", err, frag)
		}
	}

	_, err = LoadMatrixCSV(strings.NewReader("x,y,t,value\n1,1,1,2.5\n"))
	if err == nil {
		t.Fatal("a file listing 1 of 8 cells was accepted")
	}
	for _, frag := range []string{"1 of the 8 cells", "2x2x2"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not mention %q", err, frag)
		}
	}
}

// TestLoadMatrixCSVRejectsSparse: 42 bytes naming three far corners of a
// 256×256×256 box are refused before the decoder allocates anything
// the size of the box (the matrix would be 128 MiB).
func TestLoadMatrixCSVRejectsSparse(t *testing.T) {
	in := "x,y,t,value\n255,0,0,1\n0,255,0,1\n0,0,255,1\n"
	if len(in) != 42 {
		t.Fatalf("input is %d bytes, want 42", len(in))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := LoadMatrixCSV(strings.NewReader(in))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a file listing 3 of 2^24 cells was accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("refusing the file allocated %d bytes, want under 1 MiB", got)
	}
}

// TestSaveMatrixCSVFileAtomic: the file helper produces a loadable
// release, replaces an existing file in place, and leaves no temp
// debris behind on success.
func TestSaveMatrixCSVFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "release.csv")
	m := grid.NewMatrix(2, 2, 2)
	m.Set(1, 1, 1, 3.5)
	if err := SaveMatrixCSVFile(context.Background(), path, m); err != nil {
		t.Fatal(err)
	}
	m.Set(0, 0, 0, -1.25)
	if err := SaveMatrixCSVFile(context.Background(), path, m); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := LoadMatrixCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	if got.At(0, 0, 0) != -1.25 || got.At(1, 1, 1) != 3.5 {
		t.Fatalf("reloaded cells %g/%g", got.At(0, 0, 0), got.At(1, 1, 1))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want just the release", len(entries))
	}
}

// TestSaveMatrixCSVMatchesFmt: the strconv encoder writes exactly the
// bytes of the fmt "%d,%d,%d,%g\n" rows it replaced — published window
// checksums depend on it — across signed zeros, subnormals, the points
// where %g switches to an exponent, the extremes and random finite bit
// patterns, over enough cells to cross the write buffer several times.
func TestSaveMatrixCSVMatchesFmt(t *testing.T) {
	special := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1022, 0x1.fffffffffffffp-1023, 1e-5, 1e-4, 9.9999e-5, 1.5e-5, -1e-4,
		123456, 1234567, 999999, 1e6, 1e20, 1e21, -1e21, 123456789012345678,
		math.MaxFloat64, -math.MaxFloat64, 0.1, 1.0 / 3, -2.5, 1, -1,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	m := grid.NewMatrix(41, 13, 20) // 10,660 cells, about 325 KB
	rng := rand.New(rand.NewSource(23))
	for i := range m.Data() {
		if i < len(special) {
			m.Data()[i] = special[i]
			continue
		}
		v := math.Float64frombits(rng.Uint64())
		for math.IsNaN(v) || math.IsInf(v, 0) {
			v = math.Float64frombits(rng.Uint64())
		}
		m.Data()[i] = v
	}
	var want bytes.Buffer
	want.WriteString("x,y,t,value\n")
	for t := 0; t < m.Ct; t++ {
		for y := 0; y < m.Cy; y++ {
			for x := 0; x < m.Cx; x++ {
				want.WriteString(fmt.Sprintf("%d,%d,%d,%g\n", x, y, t, m.At(x, y, t)))
			}
		}
	}
	var got bytes.Buffer
	if err := SaveMatrixCSV(m, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := strings.Split(got.String(), "\n"), strings.Split(want.String(), "\n")
		for i := range min(len(g), len(w)) {
			if g[i] != w[i] {
				t.Fatalf("line %d: %q, fmt writes %q", i+1, g[i], w[i])
			}
		}
		t.Fatalf("%d lines, fmt writes %d", len(g), len(w))
	}
}

// TestLoadMatrixCSVSyntax: the forms encoding/csv reads — quoted fields,
// CRLF and a CR before EOF, blank lines, signed and zero-padded
// coordinates, hex floats, a line longer than the read buffer — load
// as that decoder loaded them, and -0 loads as +0 (the zeroed cell plus
// -0, as accumulation gave). Plain rows fill the rest of the 2×2×8 box.
func TestLoadMatrixCSVSyntax(t *testing.T) {
	long := "1." + strings.Repeat("0", 70_000) + "1"
	var fill strings.Builder
	for c := 4; c < 32; c++ {
		if c != 29 { // (1,0,7) is the -0 row below
			fmt.Fprintf(&fill, "%d,%d,%d,3\n", c%2, c/2%2, c/4)
		}
	}
	in := "\r\n\"x\",y,\"t\",value\r\n\n" + fill.String() +
		"\"1\",+0,007,\"-0\"\r\n0,0,0,0x1p-2\n\n0,1,0," + long + "\n1,0,0,3\n1,1,0,2.5\r"
	m, err := LoadMatrixCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.Cx != 2 || m.Cy != 2 || m.Ct != 8 {
		t.Fatalf("dimensions %dx%dx%d, want 2x2x8", m.Cx, m.Cy, m.Ct)
	}
	if got := m.At(1, 0, 7); math.Float64bits(got) != 0 {
		t.Fatalf("-0 cell loaded with bits %#x, want +0", math.Float64bits(got))
	}
	if m.At(0, 0, 0) != 0.25 || m.At(0, 1, 0) != 1 || m.At(1, 1, 0) != 2.5 || m.At(1, 1, 7) != 3 {
		t.Fatalf("cells %v, %v, %v, %v; want 0.25, 1, 2.5, 3", m.At(0, 0, 0), m.At(0, 1, 0), m.At(1, 1, 0), m.At(1, 1, 7))
	}
	want, err := loadMatrixCSVOracle(strings.NewReader(in))
	if err != nil {
		t.Fatalf("encoding/csv decoder refused the input: %v", err)
	}
	for i, v := range want.Data() {
		if math.Float64bits(v) != math.Float64bits(m.Data()[i]) {
			t.Fatalf("cell %d = %v, encoding/csv decoder %v", i, m.Data()[i], v)
		}
	}
}

// matrixCSVBenchSizes are one stream window and one served release.
var matrixCSVBenchSizes = []struct {
	name string
	ct   int
}{{"32x32x12", 12}, {"32x32x120", 120}}

// benchMatrix fills a 32×32×ct matrix with noised values, full-precision
// doubles around zero as a Laplace release has them.
func benchMatrix(ct int) *grid.Matrix {
	m := grid.NewMatrix(32, 32, ct)
	rng := rand.New(rand.NewSource(1))
	for i := range m.Data() {
		m.Data()[i] = 40 + 30*rng.NormFloat64()
	}
	return m
}

func BenchmarkSaveMatrixCSV(b *testing.B) {
	for _, size := range matrixCSVBenchSizes {
		b.Run(size.name, func(b *testing.B) {
			m := benchMatrix(size.ct)
			var buf bytes.Buffer
			if err := SaveMatrixCSV(m, &buf); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(buf.Len()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := SaveMatrixCSV(m, &buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkLoadMatrixCSV(b *testing.B) {
	for _, size := range matrixCSVBenchSizes {
		b.Run(size.name, func(b *testing.B) {
			var buf bytes.Buffer
			if err := SaveMatrixCSV(benchMatrix(size.ct), &buf); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(buf.Len()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := LoadMatrixCSV(bytes.NewReader(buf.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
