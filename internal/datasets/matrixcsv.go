package datasets

import (
	"bufio"
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/grid"
	"repro/internal/resilience"
)

// matrixHeader is the header row of the released-matrix cell format.
var matrixHeader = []string{"x", "y", "t", "value"}

// SaveMatrixCSV writes a consumption matrix as the cell list `x,y,t,value`
// — the release format stpt-run emits and stpt-serve loads. Cells are
// written in (t, y, x) order, one row per cell.
func SaveMatrixCSV(m *grid.Matrix, w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, strings.Join(matrixHeader, ",")); err != nil {
		return err
	}
	for t := 0; t < m.Ct; t++ {
		for y := 0; y < m.Cy; y++ {
			for x := 0; x < m.Cx; x++ {
				if _, err := fmt.Fprintf(bw, "%d,%d,%d,%g\n", x, y, t, m.At(x, y, t)); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// SaveMatrixCSVFile writes the matrix to path atomically — temp file in
// the same directory, fsync, rename — so a crash mid-save leaves either
// the previous file or the complete new one, never a torn release that
// LoadMatrixCSV would half-read. This is the only way release files
// should reach disk.
func SaveMatrixCSVFile(ctx context.Context, path string, m *grid.Matrix) error {
	return resilience.AtomicWriteFile(ctx, path, func(w io.Writer) error {
		return SaveMatrixCSV(m, w)
	})
}

// LoadMatrixCSV reads the SaveMatrixCSV cell-list format back into a
// matrix. The header must be exactly x,y,t,value: a file that merely
// has four columns (a stpt-datagen household file over two intervals,
// say) is not a release. Dimensions are inferred as max coordinate + 1
// per axis; cells absent from the file stay zero. A duplicate (x,y,t)
// cell is an error naming both rows: SaveMatrixCSV writes each cell
// exactly once, so a repeat means the file was corrupted or
// concatenated, and silently accumulating it would double the cell.
// Values may be negative (DP noise produces negative cells) but must be
// finite, and coordinates are bounded so a corrupt file cannot demand
// an absurd allocation.
func LoadMatrixCSV(r io.Reader) (*grid.Matrix, error) {
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
