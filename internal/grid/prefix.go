package grid

import "fmt"

// PrefixSum is a 3-D summed-volume table over a Matrix: any range query is
// answered in O(1) by inclusion–exclusion over its eight corners. Building
// it is O(Cx·Cy·Ct).
type PrefixSum struct {
	cx, cy, ct int
	// cum has dimensions (cx+1) x (cy+1) x (ct+1), index (t*(cy+1)+y)*(cx+1)+x,
	// where cum[x][y][t] = sum of m over [0,x) x [0,y) x [0,t).
	cum []float64
}

// NewPrefixSum builds the summed-volume table for m.
func NewPrefixSum(m *Matrix) *PrefixSum {
	p := &PrefixSum{cx: m.Cx, cy: m.Cy, ct: m.Ct}
	sx, sy := m.Cx+1, m.Cy+1
	p.cum = make([]float64, sx*sy*(m.Ct+1))
	at := func(x, y, t int) float64 { return p.cum[(t*sy+y)*sx+x] }
	for t := 1; t <= m.Ct; t++ {
		for y := 1; y <= m.Cy; y++ {
			for x := 1; x <= m.Cx; x++ {
				v := m.At(x-1, y-1, t-1) +
					at(x-1, y, t) + at(x, y-1, t) + at(x, y, t-1) -
					at(x-1, y-1, t) - at(x-1, y, t-1) - at(x, y-1, t-1) +
					at(x-1, y-1, t-1)
				p.cum[(t*sy+y)*sx+x] = v
			}
		}
	}
	return p
}

// Dims returns the dimensions of the indexed matrix.
func (p *PrefixSum) Dims() (cx, cy, ct int) { return p.cx, p.cy, p.ct }

// RangeSum answers the inclusive-bounds query in O(1).
func (p *PrefixSum) RangeSum(q Query) float64 {
	if !q.ValidIn(p.cx, p.cy, p.ct) {
		panic(fmt.Sprintf("grid: query %+v outside %dx%dx%d", q, p.cx, p.cy, p.ct))
	}
	sx, sy := p.cx+1, p.cy+1
	at := func(x, y, t int) float64 { return p.cum[(t*sy+y)*sx+x] }
	x0, x1 := q.X0, q.X1+1
	y0, y1 := q.Y0, q.Y1+1
	t0, t1 := q.T0, q.T1+1
	return at(x1, y1, t1) - at(x0, y1, t1) - at(x1, y0, t1) - at(x1, y1, t0) +
		at(x0, y0, t1) + at(x0, y1, t0) + at(x1, y0, t0) - at(x0, y0, t0)
}

// TileIndex and NewTileIndex keep the names perfbench builds its
// reference answers with; no program code uses them. They go when
// perfbench reads the program's own stage times (ROADMAP item 5).
type TileIndex = PrefixSum

// NewTileIndex is NewPrefixSum, under perfbench's name for it.
func NewTileIndex(m *Matrix) *TileIndex { return NewPrefixSum(m) }
