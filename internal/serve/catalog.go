package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
)

// The release catalog is the replication protocol's entire control
// plane: GET /catalog describes the serving generation as a checksummed
// file manifest, GET /catalog/file?d=<name> streams one file (with
// Range support, so interrupted transfers resume). Everything else —
// what to fetch, when to swap, what to refuse — is follower-side
// policy, which is what makes replication lease-free: releases are
// immutable artifacts, so copy-verify-swap needs no write coordination.

// CatalogFile describes one release file in a serving generation.
type CatalogFile struct {
	// Name is the release name queries address (?d=...).
	Name string `json:"name"`
	// File is the bare file name a follower stores the release under.
	// Always a clean basename: DecodeCatalog refuses anything that
	// could escape the follower's data directory.
	File string `json:"file"`
	// Size and CRC are the byte length and CRC-32C of the file as the
	// leader loaded it; a fetched file is installed only when both match.
	Size int64  `json:"size"`
	CRC  uint32 `json:"crc32c"`
}

// Catalog is the /catalog wire document.
type Catalog struct {
	// Generation identifies the leader's serving release set; it
	// increments on every successful swap, so "follower caught up" is
	// one integer comparison.
	Generation uint64 `json:"generation"`
	// Files lists every release in the generation, sorted by name.
	Files []CatalogFile `json:"files"`
}

// DecodeCatalog parses and validates a catalog document. Validation is
// deliberately paranoid — the decoder faces bytes from the network, and
// a malicious or corrupted catalog must not be able to make a follower
// write outside its data directory or loop over duplicate entries:
// strict JSON (unknown fields and trailing garbage refused), clean
// basenames only, non-negative sizes, and unique names and files.
func DecodeCatalog(raw []byte) (Catalog, error) {
	var c Catalog
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Catalog{}, fmt.Errorf("serve: decoding catalog: %w", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return Catalog{}, fmt.Errorf("serve: decoding catalog: trailing data after document")
	}
	names := make(map[string]bool, len(c.Files))
	files := make(map[string]bool, len(c.Files))
	for _, f := range c.Files {
		if f.Name == "" {
			return Catalog{}, fmt.Errorf("serve: catalog: entry with empty release name")
		}
		if !validCatalogFileName(f.File) {
			return Catalog{}, fmt.Errorf("serve: catalog: release %q: file %q is not a clean base name", f.Name, f.File)
		}
		if f.Size < 0 {
			return Catalog{}, fmt.Errorf("serve: catalog: release %q: negative size %d", f.Name, f.Size)
		}
		if names[f.Name] {
			return Catalog{}, fmt.Errorf("serve: catalog: duplicate release name %q", f.Name)
		}
		if files[f.File] {
			return Catalog{}, fmt.Errorf("serve: catalog: duplicate file %q", f.File)
		}
		names[f.Name] = true
		files[f.File] = true
	}
	return c, nil
}

// validCatalogFileName accepts exactly the names a follower may join to
// its data directory: a non-empty basename with no separators, no NULs,
// and not a dot-directory.
func validCatalogFileName(name string) bool {
	if name == "" || name == "." || name == ".." {
		return false
	}
	if strings.ContainsAny(name, "/\\\x00") {
		return false
	}
	return name == filepath.Base(name)
}

// BuildCatalog renders the store's current generation as a catalog.
func BuildCatalog(store *Store) Catalog {
	rels, gen := store.Snapshot()
	cat := Catalog{Generation: gen, Files: []CatalogFile{}}
	for _, rel := range rels {
		cat.Files = append(cat.Files, CatalogFile{
			Name: rel.Name,
			File: filepath.Base(rel.Source.Path),
			Size: rel.Source.Size,
			CRC:  rel.Source.CRC,
		})
	}
	return cat
}

// handleCatalog answers GET /catalog with the serving generation's
// manifest. The snapshot is taken once, so the generation id and file
// list always agree even mid-reload.
func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, BuildCatalog(s.store))
}

// handleCatalogFile streams one release's source file:
//
//	GET /catalog/file?d=<release>   (Range honoured, so fetches resume)
//
// The file is served from disk at the path the release was loaded from.
// If the file changed since the load, the bytes won't match the
// catalog's CRC and the follower refuses the download — by design the
// catalog describes what is serving, not what is on disk.
func (s *Server) handleCatalogFile(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("d")
	rel, err := s.store.Get(name)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	f, err := os.Open(rel.Source.Path)
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("opening release file: %v", err))
		return
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("release file: %v", err))
		return
	}
	http.ServeContent(w, r, filepath.Base(rel.Source.Path), st.ModTime(), f)
}
