package serve

import (
	"encoding/json"
	"testing"
)

// FuzzCatalogDecode hammers the one decoder in the replication path that
// faces bytes from the network. The invariant under fuzz: DecodeCatalog
// either returns an error or a catalog every accepted entry of which is
// safe to act on — a clean basename (nothing that can escape the data
// directory), a non-negative size, unique names and files. It must never
// panic.
func FuzzCatalogDecode(f *testing.F) {
	f.Add([]byte(`{"generation":1,"files":[{"name":"a","file":"a.csv","size":10,"crc32c":123}]}`))
	f.Add([]byte(`{"generation":0,"files":[]}`))
	f.Add([]byte(`{"generation":18446744073709551615,"files":[{"name":"x","file":"x","size":0,"crc32c":0}]}`))
	f.Add([]byte(`{"generation":1,"files":[{"name":"a","file":"../evil","size":1,"crc32c":1}]}`))
	f.Add([]byte(`nonsense`))
	f.Add([]byte(``))
	f.Add([]byte(`{"generation":1,"files":[]}{"trailing":true}`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		cat, err := DecodeCatalog(raw)
		if err != nil {
			return
		}
		names := make(map[string]bool)
		files := make(map[string]bool)
		for _, cf := range cat.Files {
			if cf.Name == "" {
				t.Fatalf("accepted empty release name: %q", raw)
			}
			if !validCatalogFileName(cf.File) {
				t.Fatalf("accepted unsafe file name %q from %q", cf.File, raw)
			}
			if cf.Size < 0 {
				t.Fatalf("accepted negative size %+v from %q", cf, raw)
			}
			if names[cf.Name] || files[cf.File] {
				t.Fatalf("accepted duplicate entry %+v from %q", cf, raw)
			}
			names[cf.Name] = true
			files[cf.File] = true
		}
		// Accepted documents must round-trip: what a leader encodes, a
		// follower decodes to the same catalog.
		enc, err := json.Marshal(cat)
		if err != nil {
			t.Fatalf("accepted catalog does not re-encode: %v", err)
		}
		cat2, err := DecodeCatalog(enc)
		if err != nil {
			t.Fatalf("re-encoded catalog refused: %v (%s)", err, enc)
		}
		if len(cat2.Files) != len(cat.Files) || cat2.Generation != cat.Generation {
			t.Fatalf("round-trip changed the catalog: %+v vs %+v", cat, cat2)
		}
	})
}
