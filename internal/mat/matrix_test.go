package mat

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewAndAccess(t *testing.T) {
	m := New(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("unexpected shape %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	m.Set(1, 2, 4.5)
	if got := m.At(1, 2); got != 4.5 {
		t.Fatalf("At(1,2) = %v, want 4.5", got)
	}
	if m.Data[5] != 4.5 {
		t.Fatalf("row-major layout broken: %v", m.Data)
	}
}

func TestAccessPanics(t *testing.T) {
	m := New(2, 2)
	for _, fn := range []func(){
		func() { m.At(2, 0) },
		func() { m.At(0, -1) },
		func() { m.Set(-1, 0, 1) },
		func() { m.Row(2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for out-of-range access")
				}
			}()
			fn()
		}()
	}
}

func TestFromRowsAndTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.T()
	if mt.Rows != 3 || mt.Cols != 2 {
		t.Fatalf("transpose shape %dx%d", mt.Rows, mt.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulAgainstHandComputed(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := Mul(a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !Equal(c, want, 0) {
		t.Fatalf("Mul = %v, want %v", c, want)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(7, 7).RandNormal(rng, 1)
	if !Equal(Mul(a, Identity(7)), a, 0) {
		t.Fatal("a*I != a")
	}
	if !Equal(Mul(Identity(7), a), a, 0) {
		t.Fatal("I*a != a")
	}
}

// Property: matrix multiplication is associative within float tolerance.
func TestMulAssociativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		m := 1 + rng.Intn(8)
		p := 1 + rng.Intn(8)
		q := 1 + rng.Intn(8)
		a := New(n, m).RandNormal(rng, 1)
		b := New(m, p).RandNormal(rng, 1)
		c := New(p, q).RandNormal(rng, 1)
		left := Mul(Mul(a, b), c)
		right := Mul(a, Mul(b, c))
		return Equal(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: (a*b)ᵀ == bᵀ*aᵀ.
func TestMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m, p := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := New(n, m).RandNormal(rng, 1)
		b := New(m, p).RandNormal(rng, 1)
		return Equal(Mul(a, b).T(), Mul(b.T(), a.T()), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := New(5, 4).RandNormal(rng, 1)
	x := make([]float64, 4)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := a.MulVec(x)
	want := Mul(a, FromSlice(4, 1, x))
	for i := range got {
		if math.Abs(got[i]-want.At(i, 0)) > 1e-12 {
			t.Fatalf("MulVec[%d] = %v, want %v", i, got[i], want.At(i, 0))
		}
	}
}

func TestMulVecToMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := New(9, 7).RandNormal(rng, 1)
	x := make([]float64, 7)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := m.MulVec(x)
	dst := make([]float64, 9)
	got := m.MulVecTo(dst, x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MulVecTo[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if n := testing.AllocsPerRun(50, func() { m.MulVecTo(dst, x) }); n != 0 {
		t.Fatalf("MulVecTo allocates %v times per call", n)
	}
}

func TestMulVecToBadLengthsPanic(t *testing.T) {
	m := New(3, 2)
	for _, c := range []struct{ dst, x int }{{2, 2}, {3, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("MulVecTo(dst=%d, x=%d) did not panic", c.dst, c.x)
				}
			}()
			m.MulVecTo(make([]float64, c.dst), make([]float64, c.x))
		}()
	}
}

func TestTMulVecMatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := New(5, 4).RandNormal(rng, 1)
	x := make([]float64, 5)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := a.TMulVec(x)
	want := a.T().MulVec(x)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("TMulVec[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{10, 20}, {30, 40}})
	sum := New(2, 2).Add(a, b)
	if sum.At(1, 1) != 44 {
		t.Fatalf("Add: %v", sum)
	}
}

func TestKahanSumPrecision(t *testing.T) {
	// 1 + 1e-16 repeated: naive sum loses the small terms entirely.
	v := make([]float64, 1_000_001)
	v[0] = 1
	for i := 1; i < len(v); i++ {
		v[i] = 1e-16
	}
	got := KahanSum(v)
	want := 1 + 1e-10
	if math.Abs(got-want) > 1e-14 {
		t.Fatalf("KahanSum = %.17g, want %.17g", got, want)
	}
}

func TestOuterAndAddOuter(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, 4, 5}
	m := New(2, 3).AddOuter(a, b) // onto zeros: the outer product
	if m.At(1, 2) != 10 {
		t.Fatalf("AddOuter onto zeros: %v", m)
	}
	m.AddOuter(a, b)
	if m.At(0, 0) != 6 {
		t.Fatalf("AddOuter: %v", m)
	}
}

func TestSoftmax(t *testing.T) {
	x := []float64{1, 2, 3}
	dst := make([]float64, 3)
	softmax := func(dst, x []float64) { SoftmaxRows(FromSlice(1, 3, dst), FromSlice(1, 3, x)) }
	softmax(dst, x)
	var sum float64
	for _, v := range dst {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("softmax does not sum to 1: %v", sum)
	}
	if !(dst[2] > dst[1] && dst[1] > dst[0]) {
		t.Fatalf("softmax not monotone: %v", dst)
	}
	// Large inputs must not overflow.
	softmax(dst, []float64{1000, 1000, 1000})
	for _, v := range dst {
		if math.IsNaN(v) || math.Abs(v-1.0/3) > 1e-12 {
			t.Fatalf("softmax overflow: %v", dst)
		}
	}
}

func TestMinMaxAndClamp(t *testing.T) {
	if Clamp(10, 0, 1) != 1 || Clamp(-1, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp broken")
	}
}

func TestMeanVarianceStd(t *testing.T) {
	v := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(v) != 5 {
		t.Fatalf("Mean = %v", Mean(v))
	}
	if Variance(v) != 4 {
		t.Fatalf("Variance = %v", Variance(v))
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Fatal("empty-slice stats should be 0")
	}
}

func TestGlorotUniformBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := New(30, 40).GlorotUniform(rng, 30, 40)
	bound := math.Sqrt(6.0 / 70.0)
	for _, v := range m.Data {
		if math.Abs(v) > bound {
			t.Fatalf("Glorot sample %v outside ±%v", v, bound)
		}
	}
}

func TestVectorOps(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	dst := make([]float64, 3)
	AddVec(dst, a, b)
	if dst[2] != 9 {
		t.Fatalf("AddVec: %v", dst)
	}
	HadamardVec(dst, a, b)
	if dst[1] != 10 {
		t.Fatalf("HadamardVec: %v", dst)
	}
	ScaleVec(dst, 2, a)
	if dst[2] != 6 {
		t.Fatalf("ScaleVec: %v", dst)
	}
	AxpyVec(dst, 1, a)
	if dst[2] != 9 {
		t.Fatalf("AxpyVec: %v", dst)
	}
}

func TestMatrixUtilities(t *testing.T) {
	m := FromRows([][]float64{{1, -2}, {3, -4}})
	if m.Sum() != -2 {
		t.Fatalf("Sum = %v", m.Sum())
	}
	if m.MaxAbs() != 4 {
		t.Fatalf("MaxAbs = %v", m.MaxAbs())
	}
	var c Matrix
	c = *New(2, 2)
	c.CopyFrom(m)
	if c.At(1, 0) != 3 {
		t.Fatal("CopyFrom broken")
	}
	c.Fill(7)
	if c.At(0, 1) != 7 {
		t.Fatal("Fill broken")
	}
	c.Zero()
	if c.Sum() != 0 {
		t.Fatal("Zero broken")
	}
	if s := m.String(); !strings.Contains(s, "2x2") || !strings.Contains(s, "-4") {
		t.Fatalf("String = %q", s)
	}
	if Equal(m, New(2, 3), 0) {
		t.Fatal("shape-mismatched matrices reported equal")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected CopyFrom shape panic")
		}
	}()
	c.CopyFrom(New(3, 3))
}

func TestFromSliceValidation(t *testing.T) {
	if m := FromSlice(2, 2, []float64{1, 2, 3, 4}); m.At(1, 1) != 4 {
		t.Fatal("FromSlice broken")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected length panic")
		}
	}()
	FromSlice(2, 2, []float64{1})
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(-1, 2)
}
