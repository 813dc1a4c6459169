package mat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: mulParallelTo and MulAutoTo agree exactly with Mul (same
// floating-point operation order per output row).
func TestMulParallelMatchesSerialProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m, p := 1+rng.Intn(40), 1+rng.Intn(40), 1+rng.Intn(40)
		a := New(n, m).RandNormal(rng, 1)
		b := New(m, p).RandNormal(rng, 1)
		serial := Mul(a, b)
		for _, workers := range []int{0, 1, 2, 3} {
			if !Equal(mulParallelTo(New(n, p), a, b, workers), serial, 0) {
				return false
			}
		}
		return Equal(MulAutoTo(New(n, p), a, b), serial, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMulParallelLargeMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := New(128, 96).RandNormal(rng, 1)
	b := New(96, 128).RandNormal(rng, 1)
	if !Equal(mulParallelTo(New(128, 128), a, b, 2), Mul(a, b), 0) {
		t.Fatal("parallel result diverges on large matrix")
	}
}

// Odd / non-divisible shapes: row counts that don't divide evenly by the
// worker count, inner dims that straddle the matmul block size, and more
// workers than rows. Exact equality is required — the parallel kernel
// runs the same per-row operation sequence as the serial one.
func TestMulParallelOddShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := []struct{ n, m, p, workers int }{
		{7, 13, 5, 3},    // nothing divides
		{127, 63, 31, 4}, // odd everything
		{129, 65, 33, 7}, // just past the block boundary
		{3, 200, 1, 8},   // more workers than rows
		{1, 1, 1, 16},    // degenerate
		{64, 64, 64, 3},  // exactly the MulAutoTo threshold work size
	}
	for _, s := range shapes {
		a := New(s.n, s.m).RandNormal(rng, 1)
		b := New(s.m, s.p).RandNormal(rng, 1)
		serial := Mul(a, b)
		if !Equal(mulParallelTo(New(s.n, s.p), a, b, s.workers), serial, 0) {
			t.Errorf("mulParallelTo(%dx%d * %dx%d, workers=%d) != Mul", s.n, s.m, s.m, s.p, s.workers)
		}
		if !Equal(MulAutoTo(New(s.n, s.p), a, b), serial, 0) {
			t.Errorf("MulAutoTo(%dx%d * %dx%d) != Mul", s.n, s.m, s.m, s.p)
		}
	}
}

func TestMulParallelDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	mulParallelTo(New(2, 2), New(2, 3), New(4, 2), 2)
}

func BenchmarkMulSerial256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := New(256, 256).RandNormal(rng, 1)
	y := New(256, 256).RandNormal(rng, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
}

func BenchmarkMulParallel256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := New(256, 256).RandNormal(rng, 1)
	y := New(256, 256).RandNormal(rng, 1)
	out := New(256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mulParallelTo(out, x, y, 0)
	}
}
