package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a linear solve encounters a (numerically)
// singular matrix.
var ErrSingular = errors.New("mat: singular matrix")

// Cholesky computes the lower-triangular factor L with a = L*Lᵀ for a
// symmetric positive-definite matrix. It returns ErrSingular when a pivot
// is not positive.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("mat: Cholesky of non-square %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	l := New(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			d -= l.At(j, k) * l.At(j, k)
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrSingular
		}
		l.Set(j, j, math.Sqrt(d))
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/l.At(j, j))
		}
	}
	return l, nil
}

// SolveCholesky solves a*x = b given the Cholesky factor l of a.
func SolveCholesky(l *Matrix, b []float64) []float64 {
	n := l.Rows
	if len(b) != n {
		panic("mat: SolveCholesky length mismatch")
	}
	// Forward substitution: L y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	// Back substitution: Lᵀ x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}

// Solve solves the square system a*x = b by Gaussian elimination with
// partial pivoting. a and b are not modified.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("mat: Solve of non-square %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	if len(b) != n {
		return nil, fmt.Errorf("mat: Solve rhs length %d, want %d", len(b), n)
	}
	// Augmented working copy.
	w := a.Clone()
	x := make([]float64, n)
	copy(x, b)
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot, best := col, math.Abs(w.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(w.At(r, col)); v > best {
				pivot, best = r, v
			}
		}
		if best == 0 {
			return nil, ErrSingular
		}
		if pivot != col {
			pr, cr := w.Row(pivot), w.Row(col)
			for j := range pr {
				pr[j], cr[j] = cr[j], pr[j]
			}
			x[pivot], x[col] = x[col], x[pivot]
		}
		inv := 1 / w.At(col, col)
		for r := col + 1; r < n; r++ {
			f := w.At(r, col) * inv
			if f == 0 {
				continue
			}
			rr, cr := w.Row(r), w.Row(col)
			for j := col; j < n; j++ {
				rr[j] -= f * cr[j]
			}
			x[r] -= f * x[col]
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		row := w.Row(i)
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return x, nil
}

// LeastSquares solves min_x ||a*x - b||₂ via the normal equations
// (aᵀa + ridge*I) x = aᵀ b. A small ridge keeps the system well-posed.
func LeastSquares(a *Matrix, b []float64, ridge float64) ([]float64, error) {
	if len(b) != a.Rows {
		return nil, fmt.Errorf("mat: LeastSquares rhs length %d, want %d", len(b), a.Rows)
	}
	at := a.T()
	ata := Mul(at, a)
	for i := 0; i < ata.Rows; i++ {
		ata.Data[i*ata.Cols+i] += ridge
	}
	atb := at.MulVec(b)
	l, err := Cholesky(ata)
	if err != nil {
		return Solve(ata, atb)
	}
	return SolveCholesky(l, atb), nil
}
