package stats

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64. It is deliberately
// minimal: just what QR-based least squares needs.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewMatrix allocates a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("stats: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// String formats the matrix for debugging.
func (m *Matrix) String() string {
	s := ""
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			s += fmt.Sprintf("%10.4f ", m.At(i, j))
		}
		s += "\n"
	}
	return s
}

// ErrRankDeficient is returned when the design matrix does not have full
// column rank and the least-squares problem has no unique solution.
var ErrRankDeficient = errors.New("stats: rank-deficient design matrix")

// qr holds an in-place Householder QR factorisation of an m×n matrix
// with m >= n. After factorisation the upper triangle of a contains R
// and the lower part the Householder vectors; beta holds the scalar
// factors.
type qr struct {
	a    *Matrix
	beta []float64
}

// factorQR computes the Householder QR factorisation of a copy of m.
func factorQR(m *Matrix) (*qr, error) {
	if m.Rows < m.Cols {
		return nil, errors.New("stats: QR requires rows >= cols")
	}
	a := m.Clone()
	n := a.Cols
	beta := make([]float64, n)
	for k := 0; k < n; k++ {
		// Compute the Householder reflector for column k.
		var norm float64
		for i := k; i < a.Rows; i++ {
			v := a.At(i, k)
			norm += float64(v * v)
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			return nil, ErrRankDeficient
		}
		// Choose the sign of norm to match a(k,k) so the Householder
		// vector's leading entry 1 + a(k,k)/norm suffers no cancellation
		// (the LINPACK/JAMA convention); R(k,k) is then -norm.
		if a.At(k, k) < 0 {
			norm = -norm
		}
		for i := k; i < a.Rows; i++ {
			a.Set(i, k, a.At(i, k)/norm)
		}
		a.Set(k, k, a.At(k, k)+1)
		beta[k] = -norm
		// Apply the reflector to the remaining columns.
		for j := k + 1; j < n; j++ {
			var s float64
			for i := k; i < a.Rows; i++ {
				s += float64(a.At(i, k) * a.At(i, j))
			}
			s = -s / a.At(k, k)
			for i := k; i < a.Rows; i++ {
				a.Set(i, j, a.At(i, j)+float64(s*a.At(i, k)))
			}
		}
	}
	return &qr{a: a, beta: beta}, nil
}

// applyQT overwrites y with Qᵀy.
func (f *qr) applyQT(y []float64) {
	n := f.a.Cols
	for k := 0; k < n; k++ {
		var s float64
		for i := k; i < f.a.Rows; i++ {
			s += float64(f.a.At(i, k) * y[i])
		}
		s = -s / f.a.At(k, k)
		for i := k; i < f.a.Rows; i++ {
			y[i] += float64(s * f.a.At(i, k))
		}
	}
}

// solveR solves R x = b for the upper-triangular R stored in the
// factorisation, where b has length >= Cols.
func (f *qr) solveR(b []float64) ([]float64, error) {
	n := f.a.Cols
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		r := b[i]
		for j := i + 1; j < n; j++ {
			r -= float64(f.rAt(i, j) * x[j])
		}
		d := f.rAt(i, i)
		if d == 0 {
			return nil, ErrRankDeficient
		}
		x[i] = r / d
	}
	return x, nil
}

// rAt returns R(i, j). The diagonal of R is held in beta (negated during
// the factorisation), the strict upper triangle lives in a.
func (f *qr) rAt(i, j int) float64 {
	if i == j {
		return f.beta[i]
	}
	return f.a.At(i, j)
}

// invRtR computes (RᵀR)⁻¹ = (XᵀX)⁻¹, needed for the coefficient
// covariance matrix. It inverts R by back substitution column by column
// and multiplies R⁻¹ R⁻ᵀ.
func (f *qr) invRtR() (*Matrix, error) {
	n := f.a.Cols
	rinv := NewMatrix(n, n)
	// Solve R * col_j = e_j for each j to build R⁻¹.
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col, err := f.solveR(e)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			rinv.Set(i, j, col[i])
		}
	}
	// (XᵀX)⁻¹ = R⁻¹ R⁻ᵀ.
	out := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += float64(rinv.At(i, k) * rinv.At(j, k))
			}
			out.Set(i, j, s)
		}
	}
	return out, nil
}
