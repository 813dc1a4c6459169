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

// TestLoadFileRefusesHouseholdCSV: a stpt-datagen household file holds
// raw, un-noised readings. Serving exact sums over it — and replicating
// it to followers as if it were a release — would publish the data the
// mechanism exists to protect, so the store refuses it whatever its
// column count, and nothing is registered.
func TestLoadFileRefusesHouseholdCSV(t *testing.T) {
	for name, content := range map[string]string{
		// Two intervals: the same four columns as x,y,t,value.
		"four-field": "x,y,v0,v1\n0,0,1.5,2\n1,1,0.5,3\n",
		"five-field": "x,y,v0,v1,v2\n0,0,1.5,2,1\n1,1,0.5,3,1\n",
	} {
		path := writeFile(t, name+".csv", content)
		s := NewStore()
		err := s.LoadAll([]LoadSpec{{Name: "hh", Path: path}})
		if err == nil {
			t.Errorf("%s: household file loaded as a release", name)
			continue
		}
		if !strings.Contains(err.Error(), path) {
			t.Errorf("%s: error %q does not name the file", name, err)
		}
		if s.Len() != 0 {
			t.Errorf("%s: refused load registered %d releases", name, s.Len())
		}
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
	loadReleases(t, s, "b")
	if rel, err := s.Get(""); err != nil || rel.Name != "b" {
		t.Errorf("single-release default: %v, %v", rel, err)
	}
	loadReleases(t, s, "a", "b")
	if _, err := s.Get(""); err == nil {
		t.Error("ambiguous default resolved")
	}
	names := s.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names = %v, want [a b]", names)
	}
}
