// Package grid implements the 3-D consumption matrix of Section 3.1
// (spatial Cx x Cy grid by Ct time intervals), range queries over it
// (Definition 3), and the prefix-sum index that answers them in O(1).
package grid

import (
	"fmt"

	"repro/internal/timeseries"
)

// Matrix is the consumption matrix C: element (x, y, t) holds the total
// consumption of households in spatial cell (x, y) during time interval t.
type Matrix struct {
	Cx, Cy, Ct int
	data       []float64 // index (t*Cy + y)*Cx + x
}

// NewMatrix returns a zeroed Cx x Cy x Ct matrix.
func NewMatrix(cx, cy, ct int) *Matrix {
	if cx <= 0 || cy <= 0 || ct <= 0 {
		panic(fmt.Sprintf("grid: invalid matrix dimensions %dx%dx%d", cx, cy, ct))
	}
	return &Matrix{Cx: cx, Cy: cy, Ct: ct, data: make([]float64, cx*cy*ct)}
}

// FromDataset accumulates every household's readings over the intervals
// [t0, t1) into its grid cell: element (x, y, t) of the Cx x Cy x (t1-t0)
// result is cell (x, y)'s total at interval t0+t. Readings are added
// series by series, then in increasing time, so every cell's sum has one
// fixed order. This is the one place the repository turns readings into
// cell totals.
func FromDataset(d *timeseries.Dataset, t0, t1 int) *Matrix {
	if err := d.Validate(); err != nil {
		panic("grid: " + err.Error())
	}
	if t0 < 0 || t1 > d.T() || t0 >= t1 {
		panic(fmt.Sprintf("grid: interval range [%d, %d) outside [0, %d)", t0, t1, d.T()))
	}
	m := NewMatrix(d.Cx, d.Cy, t1-t0)
	for _, s := range d.Series {
		for t := t0; t < t1; t++ {
			m.AddAt(s.Location.X, s.Location.Y, t-t0, s.Values[t])
		}
	}
	return m
}

func (m *Matrix) idx(x, y, t int) int {
	if x < 0 || x >= m.Cx || y < 0 || y >= m.Cy || t < 0 || t >= m.Ct {
		panic(fmt.Sprintf("grid: index (%d,%d,%d) out of range %dx%dx%d", x, y, t, m.Cx, m.Cy, m.Ct))
	}
	return (t*m.Cy+y)*m.Cx + x
}

// At returns element (x, y, t).
func (m *Matrix) At(x, y, t int) float64 { return m.data[m.idx(x, y, t)] }

// Set assigns element (x, y, t).
func (m *Matrix) Set(x, y, t int, v float64) { m.data[m.idx(x, y, t)] = v }

// AddAt accumulates v into element (x, y, t).
func (m *Matrix) AddAt(x, y, t int, v float64) { m.data[m.idx(x, y, t)] += v }

// Len returns the total number of cells.
func (m *Matrix) Len() int { return len(m.data) }

// Data exposes the backing slice for bulk read-only traversal. Callers
// must not grow it; index layout is (t*Cy + y)*Cx + x.
func (m *Matrix) Data() []float64 { return m.data }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Cx, m.Cy, m.Ct)
	copy(out.data, m.data)
	return out
}

// Pillar returns the time series of cell (x, y) — all Ct values sharing
// the same spatial coordinates — as a fresh slice.
func (m *Matrix) Pillar(x, y int) []float64 {
	out := make([]float64, m.Ct)
	for t := 0; t < m.Ct; t++ {
		out[t] = m.At(x, y, t)
	}
	return out
}

// SetPillar writes a length-Ct series into cell (x, y).
func (m *Matrix) SetPillar(x, y int, values []float64) {
	if len(values) != m.Ct {
		panic(fmt.Sprintf("grid: SetPillar length %d, want %d", len(values), m.Ct))
	}
	for t, v := range values {
		m.Set(x, y, t, v)
	}
}

// TimeSlice returns the Cx x Cy spatial slice at time t as a fresh
// row-major (y-major) slice.
func (m *Matrix) TimeSlice(t int) []float64 {
	out := make([]float64, m.Cx*m.Cy)
	copy(out, m.data[t*m.Cx*m.Cy:(t+1)*m.Cx*m.Cy])
	return out
}

// Total returns the sum of all cells.
func (m *Matrix) Total() float64 {
	var s float64
	for _, v := range m.data {
		s += v
	}
	return s
}

// Max returns the largest cell value (0 for an all-zero matrix is fine:
// consumption is non-negative).
func (m *Matrix) Max() float64 {
	var best float64
	for _, v := range m.data {
		if v > best {
			best = v
		}
	}
	return best
}

// Query is a 3-orthotope range query (Definition 3) with inclusive bounds
// in all three dimensions. The JSON tags define the wire shape the
// serving daemon exposes, so they are part of the public API.
type Query struct {
	X0 int `json:"x0"` // 0 <= X0 <= X1 < Cx
	X1 int `json:"x1"`
	Y0 int `json:"y0"`
	Y1 int `json:"y1"`
	T0 int `json:"t0"`
	T1 int `json:"t1"`
}

// Valid reports whether the query lies within the matrix bounds.
func (q Query) Valid(m *Matrix) bool { return q.ValidIn(m.Cx, m.Cy, m.Ct) }

// Volume returns the number of cells the query covers.
func (q Query) Volume() int {
	return (q.X1 - q.X0 + 1) * (q.Y1 - q.Y0 + 1) * (q.T1 - q.T0 + 1)
}

// ValidIn reports whether the query lies within a cx x cy x ct box — the
// matrix-free form of Valid, shared by callers that only know dimensions
// (e.g. a prefix-sum index or a request validator).
func (q Query) ValidIn(cx, cy, ct int) bool {
	return q.X0 >= 0 && q.X0 <= q.X1 && q.X1 < cx &&
		q.Y0 >= 0 && q.Y0 <= q.Y1 && q.Y1 < cy &&
		q.T0 >= 0 && q.T0 <= q.T1 && q.T1 < ct
}

// Canonicalize returns the query with each axis's bounds ordered
// (X0 <= X1, Y0 <= Y1, T0 <= T1). It does not touch out-of-box bounds;
// combine with Clip for full normalisation.
func (q Query) Canonicalize() Query {
	if q.X0 > q.X1 {
		q.X0, q.X1 = q.X1, q.X0
	}
	if q.Y0 > q.Y1 {
		q.Y0, q.Y1 = q.Y1, q.Y0
	}
	if q.T0 > q.T1 {
		q.T0, q.T1 = q.T1, q.T0
	}
	return q
}

// Clip intersects the query with the box [0,cx) x [0,cy) x [0,ct) and
// reports whether any cells remain. Inverted axes are treated as empty,
// not reordered — Canonicalize first if client bound order is untrusted.
// When ok is false the returned query is meaningless.
func (q Query) Clip(cx, cy, ct int) (clipped Query, ok bool) {
	if q.X0 < 0 {
		q.X0 = 0
	}
	if q.Y0 < 0 {
		q.Y0 = 0
	}
	if q.T0 < 0 {
		q.T0 = 0
	}
	if q.X1 >= cx {
		q.X1 = cx - 1
	}
	if q.Y1 >= cy {
		q.Y1 = cy - 1
	}
	if q.T1 >= ct {
		q.T1 = ct - 1
	}
	return q, q.X0 <= q.X1 && q.Y0 <= q.Y1 && q.T0 <= q.T1
}

// RangeSum answers the query by direct accumulation. Use a PrefixSum index
// for repeated queries.
func (m *Matrix) RangeSum(q Query) float64 {
	if !q.Valid(m) {
		panic(fmt.Sprintf("grid: query %+v outside %dx%dx%d", q, m.Cx, m.Cy, m.Ct))
	}
	var s float64
	for t := q.T0; t <= q.T1; t++ {
		for y := q.Y0; y <= q.Y1; y++ {
			base := (t*m.Cy + y) * m.Cx
			for x := q.X0; x <= q.X1; x++ {
				s += m.data[base+x]
			}
		}
	}
	return s
}
