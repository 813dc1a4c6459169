package datasets

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"

	"repro/internal/grid"
	"repro/internal/resilience"
)

// matrixHeader is the header row of the released-matrix cell format.
var matrixHeader = []string{"x", "y", "t", "value"}

// codecBufSize is the matrix codec's read and write buffer: a 32×32×12
// window (about 270 KB of CSV) moves in a handful of system calls.
const codecBufSize = 64 << 10

// SaveMatrixCSV writes a consumption matrix as the cell list `x,y,t,value`
// — the release format stpt-run emits and stpt-serve loads. Cells are
// written in (t, y, x) order, one row per cell. Each row is appended
// with strconv straight into the writer's buffer; the bytes are exactly
// those of fmt's "%d,%d,%d,%g\n" (shortest round-trip floats), which
// window checksums journalled by earlier versions depend on.
func SaveMatrixCSV(m *grid.Matrix, w io.Writer) error {
	bw := bufio.NewWriterSize(w, codecBufSize)
	if _, err := bw.WriteString("x,y,t,value\n"); err != nil {
		return err
	}
	data := m.Data()
	i := 0
	for t := 0; t < m.Ct; t++ {
		for y := 0; y < m.Cy; y++ {
			for x := 0; x < m.Cx; x++ {
				row := bw.AvailableBuffer()
				row = strconv.AppendInt(row, int64(x), 10)
				row = append(row, ',')
				row = strconv.AppendInt(row, int64(y), 10)
				row = append(row, ',')
				row = strconv.AppendInt(row, int64(t), 10)
				row = append(row, ',')
				row = strconv.AppendFloat(row, data[i], 'g', -1, 64)
				row = append(row, '\n')
				if _, err := bw.Write(row); err != nil {
					return err
				}
				i++
			}
		}
	}
	return bw.Flush()
}

// SaveMatrixCSVFile writes the matrix to path atomically — temp file in
// the same directory, fsync, rename — so a crash mid-save leaves either
// the previous file or the complete new one, never a torn release that
// LoadMatrixCSV would half-read. This is the only way release files
// should reach disk. The file is created 0644 less the umask, so a
// server running under another account can read the release.
func SaveMatrixCSVFile(ctx context.Context, path string, m *grid.Matrix) error {
	return resilience.AtomicWriteFile(ctx, path, 0o644, func(w io.Writer) error {
		return SaveMatrixCSV(m, w)
	})
}

// LoadMatrixCSV reads the SaveMatrixCSV cell-list format back into a
// matrix. The header must be exactly x,y,t,value: a file that merely
// has four columns (a stpt-datagen household file over two intervals,
// say) is not a release. Dimensions are inferred as max coordinate + 1
// per axis, and every cell of that box must be listed exactly once, as
// SaveMatrixCSV writes it: a missing cell or a repeated one means the
// file was truncated, corrupted or concatenated. A duplicate (x,y,t) is
// an error naming both rows, since silently accumulating it would
// double the cell. Values may be negative (DP noise produces negative
// cells) but must be finite, and coordinates are bounded so a corrupt
// file cannot demand an absurd allocation.
//
// The syntax accepted is encoding/csv's: double-quoted fields, CRLF line
// ends, a CR before EOF and blank lines all read as that decoder reads
// them, and a coordinate is whatever strconv.Atoi takes (+1, 007). The
// file is parsed in one pass over its lines. A file with fewer cell
// rows than its box has cells is refused before anything the size of
// the box is allocated, so what the decoder allocates is bounded by the
// file's own length; duplicates are then found with one seen bit per
// cell, before the matrix itself is allocated.
func LoadMatrixCSV(r io.Reader) (*grid.Matrix, error) {
	var (
		br    = bufio.NewReaderSize(r, codecBufSize)
		long  []byte       // a line longer than br's buffer, reassembled
		rows  int          // records read, the header included
		cells []matrixCell // cells[k] is row k+2
		dims  [3]int
	)
	for {
		line, rerr := br.ReadSlice('\n')
		if rerr == bufio.ErrBufferFull {
			long = append(long[:0], line...)
			for rerr == bufio.ErrBufferFull {
				line, rerr = br.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		if rerr != nil && rerr != io.EOF {
			return nil, fmt.Errorf("datasets: reading matrix CSV: %w", rerr)
		}
		// "\n", "\r\n" and, at EOF, a bare "\r" all end a line; a line
		// left empty is no record.
		if n := len(line); n > 0 && line[n-1] == '\n' {
			line = line[:n-1]
		}
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		if len(line) > 0 {
			rows++
			var f [4][]byte
			n, ok := splitRecord(line, &f)
			switch {
			case rows == 1:
				if !ok || n != len(matrixHeader) || !slices.EqualFunc(f[:], matrixHeader, func(b []byte, s string) bool { return string(b) == s }) {
					return nil, fmt.Errorf("datasets: matrix CSV header %q, want %q", line, "x,y,t,value")
				}
			case !ok:
				return nil, fmt.Errorf("datasets: matrix row %d: malformed quoted field", rows)
			case n != 4:
				return nil, fmt.Errorf("datasets: matrix row %d has %d fields, want 4", rows, n)
			default:
				c, err := parseCell(rows, &f)
				if err != nil {
					return nil, err
				}
				for j, k := range c.xyt {
					dims[j] = max(dims[j], int(k)+1)
				}
				cells = append(cells, c)
			}
		}
		if rerr == io.EOF {
			break
		}
	}
	if rows < 2 {
		return nil, errors.New("datasets: matrix CSV needs a header and at least one cell")
	}
	// Guard the product, not just each axis: three in-range coordinates
	// can still multiply into an allocation no release legitimately needs.
	const maxCells = 1 << 28
	cx, cy, ct := dims[0], dims[1], dims[2]
	if int64(cx)*int64(cy)*int64(ct) > maxCells {
		return nil, fmt.Errorf("datasets: matrix dimensions %dx%dx%d exceed %d cells", cx, cy, ct, maxCells)
	}
	if len(cells) < cx*cy*ct {
		return nil, fmt.Errorf("datasets: matrix CSV lists %d of the %d cells of its %dx%dx%d box; every cell must be listed",
			len(cells), cx*cy*ct, cx, cy, ct)
	}
	index := func(c matrixCell) uint { return uint((int(c.xyt[2])*cy+int(c.xyt[1]))*cx + int(c.xyt[0])) }
	seen := make([]uint64, (cx*cy*ct+63)/64)
	for k, c := range cells {
		i := index(c)
		if seen[i/64]&(1<<(i%64)) != 0 {
			first := slices.IndexFunc(cells, func(d matrixCell) bool { return d.xyt == c.xyt })
			return nil, fmt.Errorf("datasets: matrix row %d: duplicate cell (%d,%d,%d), first defined at row %d",
				k+2, c.xyt[0], c.xyt[1], c.xyt[2], first+2)
		}
		seen[i/64] |= 1 << (i % 64)
	}
	m := grid.NewMatrix(cx, cy, ct)
	data := m.Data()
	for _, c := range cells {
		data[index(c)] += c.v // onto +0, as AddAt did: a -0 cell loads as +0
	}
	return m, nil
}

// matrixCell is one parsed cell row: its x, y, t coordinates and value.
type matrixCell struct {
	xyt [3]int32
	v   float64
}

// parseCell reads the four fields of cell row number row.
func parseCell(row int, f *[4][]byte) (matrixCell, error) {
	var c matrixCell
	for j := range c.xyt {
		k, err := strconv.Atoi(string(f[j]))
		if err != nil {
			return c, fmt.Errorf("datasets: matrix row %d %s: %w", row, matrixHeader[j], err)
		}
		if k < 0 || k >= MaxGridSide {
			return c, fmt.Errorf("datasets: matrix row %d %s=%d outside [0,%d)", row, matrixHeader[j], k, MaxGridSide)
		}
		c.xyt[j] = int32(k)
	}
	v, err := strconv.ParseFloat(string(f[3]), 64)
	if err != nil {
		return c, fmt.Errorf("datasets: matrix row %d value: %w", row, err)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return c, fmt.Errorf("datasets: matrix row %d: non-finite value %q", row, f[3])
	}
	c.v = v
	return c, nil
}

// splitRecord splits one line into its CSV fields, storing the first
// four in f and returning how many there are. A field is the raw bytes
// up to the next comma, or a double-quoted run holding neither a quote
// nor a line break. ok is false for any other quoted field — an escaped
// quote, text after the closing quote, a quote still open at the end of
// the line — since encoding/csv either refuses those or reads them into
// a field no header or number can match.
func splitRecord(line []byte, f *[4][]byte) (n int, ok bool) {
	for {
		var field []byte
		if len(line) > 0 && line[0] == '"' {
			end := bytes.IndexByte(line[1:], '"')
			if end < 0 {
				return n, false
			}
			field, line = line[1:1+end], line[2+end:]
			if len(line) > 0 && line[0] != ',' {
				return n, false
			}
		} else if i := bytes.IndexByte(line, ','); i >= 0 {
			field, line = line[:i], line[i:]
		} else {
			field, line = line, nil
		}
		if n < len(f) {
			f[n] = field
		}
		n++
		if len(line) == 0 {
			return n, true
		}
		line = line[1:] // the comma
	}
}
