package serve

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/grid"
)

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadFileSniffsMatrixCSV: a stpt-run cell list loads directly.
func TestLoadFileSniffsMatrixCSV(t *testing.T) {
	m := grid.NewMatrix(4, 4, 3)
	m.Set(1, 2, 0, 7.5)
	m.Set(3, 3, 2, -1.25) // DP noise goes negative; must survive
	var sb strings.Builder
	if err := datasets.SaveMatrixCSV(m, &sb); err != nil {
		t.Fatal(err)
	}
	path := writeFile(t, "release.csv", sb.String())

	s := NewStore()
	if err := s.LoadAll([]LoadSpec{{Name: "rel", Path: path}}); err != nil {
		t.Fatal(err)
	}
	rel, err := s.Get("rel")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Matrix.Cx != 4 || rel.Matrix.Cy != 4 || rel.Matrix.Ct != 3 {
		t.Fatalf("dimensions %dx%dx%d", rel.Matrix.Cx, rel.Matrix.Cy, rel.Matrix.Ct)
	}
	if got := rel.Matrix.At(3, 3, 2); got != -1.25 {
		t.Fatalf("negative cell = %g, want -1.25", got)
	}
	q := grid.Query{X0: 0, X1: 3, Y0: 0, Y1: 3, T0: 0, T1: 2}
	if got, want := rel.Index.RangeSum(q), 7.5-1.25; got != want {
		t.Fatalf("total = %g, want %g", got, want)
	}
}

// TestLoadFileSniffsHouseholdCSV: a stpt-datagen household file is
// aggregated into its consumption matrix.
func TestLoadFileSniffsHouseholdCSV(t *testing.T) {
	path := writeFile(t, "households.csv", "x,y,v0,v1\n0,0,1.5,2\n1,1,0.5,3\n0,0,1,1\n")
	s := NewStore()
	if err := s.LoadAll([]LoadSpec{{Name: "hh", Path: path, Cx: 2, Cy: 2}}); err != nil {
		t.Fatal(err)
	}
	rel, err := s.Get("hh")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Matrix.Cx != 2 || rel.Matrix.Cy != 2 || rel.Matrix.Ct != 2 {
		t.Fatalf("dimensions %dx%dx%d, want 2x2x2", rel.Matrix.Cx, rel.Matrix.Cy, rel.Matrix.Ct)
	}
	// Two households at (0,0): 1.5+1 at t0.
	if got := rel.Matrix.At(0, 0, 0); got != 2.5 {
		t.Fatalf("cell (0,0,0) = %g, want 2.5", got)
	}
}

// TestLoadFileRefusals: missing files, unknown headers, and corrupt
// bodies are errors naming the path — never a silently empty release.
func TestLoadFileRefusals(t *testing.T) {
	s := NewStore()
	if err := s.LoadAll([]LoadSpec{{Name: "x", Path: filepath.Join(t.TempDir(), "absent.csv")}}); err == nil {
		t.Error("loaded a nonexistent file")
	}
	for name, content := range map[string]string{
		"unknown-header": "a,b,c\n1,2,3\n",
		"empty":          "",
		"corrupt-matrix": "x,y,t,value\n0,0,0,NaN\n",
		"corrupt-hh":     "x,y,v0\n0,0,+Inf\n",
	} {
		path := writeFile(t, name+".csv", content)
		if err := s.LoadAll([]LoadSpec{{Name: name, Path: path}}); err == nil {
			t.Errorf("%s: load succeeded", name)
		} else if !strings.Contains(err.Error(), name+".csv") && name != "empty" {
			t.Errorf("%s: error %q does not name the file", name, err)
		}
	}
	if s.Len() != 0 {
		t.Errorf("failed loads left %d releases registered", s.Len())
	}
}

// TestStoreGetSemantics: empty-name resolution and the sorted Names list.
func TestStoreGetSemantics(t *testing.T) {
	s := NewStore()
	if _, err := s.Get(""); err == nil {
		t.Error("empty store resolved a default release")
	}
	s.Add("b", grid.NewMatrix(2, 2, 2))
	if rel, err := s.Get(""); err != nil || rel.Name != "b" {
		t.Errorf("single-release default: %v, %v", rel, err)
	}
	s.Add("a", grid.NewMatrix(2, 2, 2))
	if _, err := s.Get(""); err == nil {
		t.Error("ambiguous default resolved")
	}
	names := s.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names = %v, want [a b]", names)
	}
}
