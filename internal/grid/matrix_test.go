package grid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/timeseries"
)

func sequentialMatrix(cx, cy, ct int) *Matrix {
	m := NewMatrix(cx, cy, ct)
	v := 0.0
	for t := 0; t < ct; t++ {
		for y := 0; y < cy; y++ {
			for x := 0; x < cx; x++ {
				m.Set(x, y, t, v)
				v++
			}
		}
	}
	return m
}

func TestNewMatrixValidation(t *testing.T) {
	for _, dims := range [][3]int{{0, 1, 1}, {1, -1, 1}, {1, 1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for dims %v", dims)
				}
			}()
			NewMatrix(dims[0], dims[1], dims[2])
		}()
	}
}

func TestAtSetAdd(t *testing.T) {
	m := NewMatrix(3, 2, 4)
	m.Set(2, 1, 3, 5)
	if m.At(2, 1, 3) != 5 {
		t.Fatal("Set/At broken")
	}
	m.AddAt(2, 1, 3, 2)
	if m.At(2, 1, 3) != 7 {
		t.Fatal("AddAt broken")
	}
	if m.Len() != 24 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestIndexPanics(t *testing.T) {
	m := NewMatrix(2, 2, 2)
	for _, c := range [][3]int{{2, 0, 0}, {0, 2, 0}, {0, 0, 2}, {-1, 0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for %v", c)
				}
			}()
			m.At(c[0], c[1], c[2])
		}()
	}
}

func TestFromDataset(t *testing.T) {
	d := &timeseries.Dataset{
		Cx: 2, Cy: 2,
		Series: []*timeseries.Series{
			{Location: timeseries.Location{X: 0, Y: 0}, Values: []float64{1, 2}},
			{Location: timeseries.Location{X: 0, Y: 0}, Values: []float64{3, 4}}, // same cell: summed
			{Location: timeseries.Location{X: 1, Y: 1}, Values: []float64{5, 6}},
		},
	}
	m := FromDataset(d, 0, 2)
	if m.At(0, 0, 0) != 4 || m.At(0, 0, 1) != 6 {
		t.Fatalf("aggregation wrong: %v %v", m.At(0, 0, 0), m.At(0, 0, 1))
	}
	if m.At(1, 1, 1) != 6 {
		t.Fatal("placement wrong")
	}
	if m.At(1, 0, 0) != 0 {
		t.Fatal("empty cell should be 0")
	}
	// A sub-range starts its time axis at t0.
	tail := FromDataset(d, 1, 2)
	if tail.Ct != 1 || tail.At(0, 0, 0) != 6 || tail.At(1, 1, 0) != 6 {
		t.Fatalf("range [1, 2) wrong: Ct %d, %v %v", tail.Ct, tail.At(0, 0, 0), tail.At(1, 1, 0))
	}
	for _, r := range [][2]int{{-1, 2}, {0, 3}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("range %v: expected panic", r)
				}
			}()
			FromDataset(d, r[0], r[1])
		}()
	}
}

func TestPillarRoundTrip(t *testing.T) {
	m := sequentialMatrix(3, 3, 5)
	p := m.Pillar(1, 2)
	if len(p) != 5 {
		t.Fatalf("pillar length %d", len(p))
	}
	for tt := 0; tt < 5; tt++ {
		if p[tt] != m.At(1, 2, tt) {
			t.Fatal("pillar mismatch")
		}
	}
	m2 := NewMatrix(3, 3, 5)
	m2.SetPillar(1, 2, p)
	for tt := 0; tt < 5; tt++ {
		if m2.At(1, 2, tt) != p[tt] {
			t.Fatal("SetPillar mismatch")
		}
	}
}

func TestTimeSliceAndTotal(t *testing.T) {
	m := sequentialMatrix(2, 2, 2)
	s0 := m.TimeSlice(0)
	if len(s0) != 4 || s0[0] != 0 || s0[3] != 3 {
		t.Fatalf("TimeSlice = %v", s0)
	}
	if m.Total() != 28 { // 0+..+7
		t.Fatalf("Total = %v", m.Total())
	}
	if m.Max() != 7 {
		t.Fatalf("Max = %v", m.Max())
	}
}

func TestCloneIndependence(t *testing.T) {
	m := sequentialMatrix(2, 2, 2)
	c := m.Clone()
	c.Set(0, 0, 0, 100)
	if m.At(0, 0, 0) == 100 {
		t.Fatal("Clone shares storage")
	}
}

func TestQueryValidAndVolume(t *testing.T) {
	m := NewMatrix(4, 4, 4)
	q := Query{X0: 1, X1: 2, Y0: 0, Y1: 3, T0: 2, T1: 2}
	if !q.Valid(m) {
		t.Fatal("valid query rejected")
	}
	if q.Volume() != 2*4*1 {
		t.Fatalf("Volume = %d", q.Volume())
	}
	bad := []Query{
		{X0: -1, X1: 0, Y1: 0, T1: 0},
		{X0: 0, X1: 4, Y1: 0, T1: 0},
		{X0: 1, X1: 0, Y1: 0, T1: 0},
		{Y0: 0, Y1: 4, X1: 0, T1: 0},
		{T0: 3, T1: 2, X1: 0, Y1: 0},
	}
	for i, b := range bad {
		if b.Valid(m) {
			t.Errorf("invalid query %d accepted: %+v", i, b)
		}
	}
}

func TestRangeSumHandComputed(t *testing.T) {
	m := sequentialMatrix(2, 2, 2) // values 0..7
	full := Query{X0: 0, X1: 1, Y0: 0, Y1: 1, T0: 0, T1: 1}
	if m.RangeSum(full) != 28 {
		t.Fatalf("full sum = %v", m.RangeSum(full))
	}
	one := Query{X0: 1, X1: 1, Y0: 1, Y1: 1, T0: 1, T1: 1}
	if m.RangeSum(one) != 7 {
		t.Fatalf("single cell = %v", m.RangeSum(one))
	}
}

// Property: prefix-sum answers match direct accumulation on random
// matrices and random queries.
func TestPrefixSumMatchesDirectProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cx, cy, ct := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		m := NewMatrix(cx, cy, ct)
		for i := range m.data {
			m.data[i] = rng.NormFloat64()
		}
		ps := NewPrefixSum(m)
		for k := 0; k < 20; k++ {
			q := randomQuery(rng, cx, cy, ct)
			if math.Abs(ps.RangeSum(q)-m.RangeSum(q)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func randomQuery(rng *rand.Rand, cx, cy, ct int) Query {
	span := func(n int) (int, int) {
		a, b := rng.Intn(n), rng.Intn(n)
		if a > b {
			a, b = b, a
		}
		return a, b
	}
	var q Query
	q.X0, q.X1 = span(cx)
	q.Y0, q.Y1 = span(cy)
	q.T0, q.T1 = span(ct)
	return q
}

func TestPrefixSumPanicsOutOfRange(t *testing.T) {
	m := NewMatrix(2, 2, 2)
	ps := NewPrefixSum(m)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ps.RangeSum(Query{X0: 0, X1: 2, Y1: 0, T1: 0})
}

// Property: matrix total equals the sum of every household reading.
func TestFromDatasetPreservesMassProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cx, cy := 1+rng.Intn(6), 1+rng.Intn(6)
		n, T := 1+rng.Intn(20), 1+rng.Intn(15)
		d := &timeseries.Dataset{Cx: cx, Cy: cy}
		var want float64
		for i := 0; i < n; i++ {
			vals := make([]float64, T)
			for t := range vals {
				vals[t] = rng.Float64() * 10
				want += vals[t]
			}
			d.Series = append(d.Series, &timeseries.Series{
				Location: timeseries.Location{X: rng.Intn(cx), Y: rng.Intn(cy)},
				Values:   vals,
			})
		}
		m := FromDataset(d, 0, T)
		return math.Abs(m.Total()-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
