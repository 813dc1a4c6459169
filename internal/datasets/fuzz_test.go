package datasets

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/grid"
)

// FuzzLoadCSV hammers the household-CSV loader with arbitrary bytes. The
// invariant under fuzz is containment, not success: LoadCSV may reject
// input with an error, but it must never panic, hang, or hand back a
// dataset that fails its own Validate — and every accepted reading must
// be finite. The corpus seeds cover the shapes the unit tests exercise
// (valid files, malformed rows, non-finite readings, huge fields) so the
// fuzzer starts from structurally interesting inputs. Historical catch:
// a row with x ≈ 2^62 drove the power-of-two side inference into signed
// overflow and an infinite loop before MaxGridSide bounded locations.
func FuzzLoadCSV(f *testing.F) {
	f.Add([]byte("x,y,v0,v1\n0,0,1.5,2\n1,1,0,3\n"))            // valid
	f.Add([]byte("x,y,v0\n0,0,1\n7,3,2\n"))                     // valid, inferred 8x8 grid
	f.Add([]byte("x,y,v0,v1\n0,0,1.5,NaN\n"))                   // non-finite reading
	f.Add([]byte("x,y,v0,v1\n0,0,+Inf,2\n"))                    // non-finite reading
	f.Add([]byte("x,y,v0,v1\n0,0,1\n"))                         // truncated row
	f.Add([]byte("x,y,v0,v1\n0,0,1,2,3\n"))                     // oversized row
	f.Add([]byte("x,y,v0\nleft,top,much\n"))                    // non-numeric fields
	f.Add([]byte("x,y,v0\n-1,0,1\n"))                           // negative location
	f.Add([]byte("x,y,v0\n4611686018427387905,0,1\n"))          // overflow-inducing x
	f.Add([]byte("x,y,v0\n0,0,1e309\n"))                        // float overflow to +Inf
	f.Add([]byte("x,y,v0\n0,0," + strings.Repeat("9", 400)))    // huge numeric field
	f.Add([]byte("x,y," + strings.Repeat("v,", 300) + "v\n"))   // very wide header
	f.Add([]byte("\"x\",\"y\",\"v0\"\n\"0\",\"0\",\"1.25\"\n")) // quoted fields
	f.Add([]byte(""))                                           // empty
	f.Add([]byte("x,y,t,value\n1,1,1,2.5\n1,1,1,1.5\n"))        // matrix shape with a duplicate cell
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := LoadCSV(bytes.NewReader(data), "fuzz", 0, 0)
		if err != nil {
			return
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("accepted dataset fails Validate: %v", err)
		}
		if d.Cx <= 0 || d.Cy <= 0 || d.Cx > MaxGridSide || d.Cy > MaxGridSide {
			t.Fatalf("accepted dataset has out-of-range grid %dx%d", d.Cx, d.Cy)
		}
		for _, s := range d.Series {
			for _, v := range s.Values {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("accepted dataset contains non-finite reading %v", v)
				}
			}
		}
	})
}

// FuzzLoadMatrixCSV is differential: on an input that lists every cell
// of its box, LoadMatrixCSV must accept exactly what the encoding/csv
// decoder it replaced (loadMatrixCSVOracle) accepts, with the same
// dimensions and the same bits in every cell, and refuse whatever that
// decoder refused. Every other input it must refuse — the oracle, which
// read absent cells as zero, is not run there, so a few bytes naming
// far corners cannot make the target allocate a huge box. Accepted
// matrices must also have bounded dimensions and finite cells.
func FuzzLoadMatrixCSV(f *testing.F) {
	f.Add([]byte("x,y,t,value\n0,0,0,1.5\n1,0,0,-2\n"))                       // valid, incl. negative cell
	f.Add([]byte("x,y,t,value\n0,0,0,1\n1,0,0,2.5\n1,0,0,1.5\n"))             // duplicate cell
	f.Add([]byte("x,y,t,value\n1,1,1,2.5\n"))                                 // 1 of 8 cells
	f.Add([]byte("x,y,t,value\n255,0,0,1\n0,255,0,1\n0,0,255,1\n"))           // 3 of 2^24 cells
	f.Add([]byte("x,y,t,value\n0,0,0,NaN\n"))                                 // non-finite
	f.Add([]byte("x,y,t,value\n9999999,0,0,1\n"))                             // out-of-range coordinate
	f.Add([]byte("x,y,t,value\n0,0,1\n"))                                     // short row
	f.Add([]byte("x,y,t,value\n"))                                            // header only
	f.Add([]byte(""))                                                         // empty
	f.Add([]byte("\"x\",\"y\",\"t\",\"value\"\n\"0\",0,\"0\",\"2.5\"\n"))     // quoted fields
	f.Add([]byte("x,y,t,value\n0,0,0,\"1\"\"5\"\n"))                          // escaped quote
	f.Add([]byte("x,y,t,value\n0,0,0,\"1\n5\"\n"))                            // quoted line break
	f.Add([]byte("x,y,t,value\r\n0,0,0,1\r\n1,0,0,2\r"))                      // CRLF, CR before EOF
	f.Add([]byte("\nx,y,t,value\n\n\r\n0,0,0,1\n\n"))                         // blank lines
	f.Add([]byte("x,y,t,value\n0,0,0,-0\n1,0,0,0\n"))                         // -0 loads as +0
	f.Add([]byte("x,y,t,value\n0,0,0,0x1p-2\n+1,000,0,-0x1.8p1\n"))           // hex floats, signed and padded coordinates
	f.Add([]byte("x,y,t,value\n1023,0,0,1\n0,1023,0,1\n0,0,256,1\n"))         // 1024x1024x257 > 2^28 cells
	f.Add([]byte("x,y,t,value\n0,0,0,1e309\n"))                               // float overflow
	f.Add([]byte("x,y,t,value\n1,0,0,2.5\n0,0,0,1\n1,0,0,1.5\n0,0,0,lots\n")) // duplicate before a bad value
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadMatrixCSV(bytes.NewReader(data))
		if !listsEveryCell(data) {
			if err == nil {
				t.Fatalf("accepted a %dx%dx%d matrix from a file that does not list every cell", m.Cx, m.Cy, m.Ct)
			}
			return
		}
		want, werr := loadMatrixCSVOracle(bytes.NewReader(data))
		if (err != nil) != (werr != nil) {
			t.Fatalf("LoadMatrixCSV error %v, encoding/csv decoder error %v", err, werr)
		}
		if err != nil {
			return
		}
		if m.Cx != want.Cx || m.Cy != want.Cy || m.Ct != want.Ct {
			t.Fatalf("dimensions %dx%dx%d, encoding/csv decoder %dx%dx%d", m.Cx, m.Cy, m.Ct, want.Cx, want.Cy, want.Ct)
		}
		for i, v := range m.Data() {
			if math.Float64bits(v) != math.Float64bits(want.Data()[i]) {
				t.Fatalf("cell %d = %v, encoding/csv decoder %v", i, v, want.Data()[i])
			}
		}
		if m.Cx <= 0 || m.Cy <= 0 || m.Ct <= 0 ||
			m.Cx > MaxGridSide || m.Cy > MaxGridSide || m.Ct > MaxGridSide {
			t.Fatalf("accepted matrix has out-of-range dimensions %dx%dx%d", m.Cx, m.Cy, m.Ct)
		}
		for _, v := range m.Data() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted matrix contains non-finite cell %v", v)
			}
		}
	})
}

// listsEveryCell reports whether data, read as encoding/csv records,
// has at least as many cell rows as the box its in-range coordinates
// span has cells. Only then can the oracle accept it without reading an
// absent cell as zero, and what the oracle allocates is bounded by the
// input's length.
func listsEveryCell(data []byte) bool {
	records, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil || len(records) < 2 {
		return false
	}
	var dims [3]int64
	for _, rec := range records[1:] {
		for j := 0; j < len(rec) && j < 3; j++ {
			if k, err := strconv.Atoi(rec[j]); err == nil && k >= 0 && k < MaxGridSide {
				dims[j] = max(dims[j], int64(k)+1)
			}
		}
	}
	return int64(len(records)-1) >= dims[0]*dims[1]*dims[2]
}

// loadMatrixCSVOracle is LoadMatrixCSV as it was before the one-pass
// parser, kept verbatim (bar its name) as the reference the fuzz target
// compares against: encoding/csv, then a map for duplicates.
func loadMatrixCSVOracle(r io.Reader) (*grid.Matrix, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("datasets: reading matrix CSV: %w", err)
	}
	if len(records) < 2 {
		return nil, fmt.Errorf("datasets: matrix CSV needs a header and at least one cell")
	}
	if !slices.Equal(records[0], matrixHeader) {
		return nil, fmt.Errorf("datasets: matrix CSV header %q, want %q", strings.Join(records[0], ","), strings.Join(matrixHeader, ","))
	}
	type cell struct {
		x, y, t int
		v       float64
	}
	cells := make([]cell, 0, len(records)-1)
	seen := make(map[[3]int]int, len(records)-1) // (x,y,t) → row number of first occurrence
	cx, cy, ct := 0, 0, 0
	for i, rec := range records[1:] {
		if len(rec) != 4 {
			return nil, fmt.Errorf("datasets: matrix row %d has %d fields, want 4", i+2, len(rec))
		}
		var c cell
		for j, dst := range []*int{&c.x, &c.y, &c.t} {
			n, err := strconv.Atoi(rec[j])
			if err != nil {
				return nil, fmt.Errorf("datasets: matrix row %d %s: %w", i+2, matrixHeader[j], err)
			}
			if n < 0 || n >= MaxGridSide {
				return nil, fmt.Errorf("datasets: matrix row %d %s=%d outside [0,%d)", i+2, matrixHeader[j], n, MaxGridSide)
			}
			*dst = n
		}
		v, err := strconv.ParseFloat(rec[3], 64)
		if err != nil {
			return nil, fmt.Errorf("datasets: matrix row %d value: %w", i+2, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("datasets: matrix row %d: non-finite value %q", i+2, rec[3])
		}
		c.v = v
		if first, dup := seen[[3]int{c.x, c.y, c.t}]; dup {
			return nil, fmt.Errorf("datasets: matrix row %d: duplicate cell (%d,%d,%d), first defined at row %d", i+2, c.x, c.y, c.t, first)
		}
		seen[[3]int{c.x, c.y, c.t}] = i + 2
		if c.x >= cx {
			cx = c.x + 1
		}
		if c.y >= cy {
			cy = c.y + 1
		}
		if c.t >= ct {
			ct = c.t + 1
		}
		cells = append(cells, c)
	}
	// Guard the product, not just each axis: three in-range coordinates
	// can still multiply into an allocation no release legitimately needs.
	const maxCells = 1 << 28
	if int64(cx)*int64(cy)*int64(ct) > maxCells {
		return nil, fmt.Errorf("datasets: matrix dimensions %dx%dx%d exceed %d cells", cx, cy, ct, maxCells)
	}
	m := grid.NewMatrix(cx, cy, ct)
	for _, c := range cells {
		m.AddAt(c.x, c.y, c.t, c.v)
	}
	return m, nil
}
