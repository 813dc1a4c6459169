package datasets

import (
	"context"
	"os"
	"path/filepath"
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
	}
	for name, c := range cases {
		if _, err := LoadMatrixCSV(strings.NewReader(c)); err == nil {
			t.Errorf("%s: accepted %q", name, c)
		}
	}
}

// TestLoadMatrixCSVRejectsDuplicates: SaveMatrixCSV writes each cell
// once, so a repeated (x,y,t) marks a corrupt or concatenated release;
// the error names both rows. Absent cells still load as zero.
func TestLoadMatrixCSVRejectsDuplicates(t *testing.T) {
	in := "x,y,t,value\n0,0,0,1\n1,1,1,2.5\n1,1,1,1.5\n"
	_, err := LoadMatrixCSV(strings.NewReader(in))
	if err == nil {
		t.Fatal("duplicate cell accepted")
	}
	for _, frag := range []string{"duplicate", "(1,1,1)", "row 4", "row 3"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not mention %q", err, frag)
		}
	}

	m, err := LoadMatrixCSV(strings.NewReader("x,y,t,value\n1,1,1,2.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Cx != 2 || m.Cy != 2 || m.Ct != 2 {
		t.Fatalf("dimensions %dx%dx%d, want 2x2x2", m.Cx, m.Cy, m.Ct)
	}
	if got := m.At(0, 0, 0); got != 0 {
		t.Fatalf("absent cell = %g, want 0", got)
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
