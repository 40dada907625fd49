package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization or solve encounters a
// numerically singular matrix.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// LU holds an LU factorization with partial pivoting of a square matrix:
// P*A = L*U, with L unit lower triangular and U upper triangular, stored
// compactly in lu.
type LU struct {
	n   int
	lu  []float64 // n x n, row-major; L below diagonal (unit diag implied), U on/above
	piv []int     // row permutation: row i of PA is row piv[i] of A
}

// Factor computes the LU factorization of a. The input matrix is not
// modified. Factor returns ErrSingular when a pivot underflows.
func Factor(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: cannot LU-factor non-square %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	f := &LU{
		n:   n,
		lu:  make([]float64, n*n),
		piv: make([]int, n),
	}
	copy(f.lu, a.Data)
	for i := range f.piv {
		f.piv[i] = i
	}

	for k := 0; k < n; k++ {
		// Partial pivoting: find the row with the largest magnitude in column k.
		p := k
		maxAbs := math.Abs(f.lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(f.lu[i*n+k]); v > maxAbs {
				maxAbs = v
				p = i
			}
		}
		if maxAbs == 0 {
			return nil, ErrSingular
		}
		if p != k {
			rowK := f.lu[k*n : (k+1)*n]
			rowP := f.lu[p*n : (p+1)*n]
			for j := range rowK {
				rowK[j], rowP[j] = rowP[j], rowK[j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
		}
		pivot := f.lu[k*n+k]
		for i := k + 1; i < n; i++ {
			m := f.lu[i*n+k] / pivot
			f.lu[i*n+k] = m
			if m == 0 {
				continue
			}
			rowI := f.lu[i*n : (i+1)*n]
			rowK := f.lu[k*n : (k+1)*n]
			for j := k + 1; j < n; j++ {
				rowI[j] -= m * rowK[j]
			}
		}
	}
	return f, nil
}

// Solve solves A*x = b, writing the solution into x. b is not modified.
// x and b must both have the matrix's dimension; they may alias each
// other.
func (f *LU) Solve(x, b []float64) error {
	n := f.n
	if len(x) != n || len(b) != n {
		return fmt.Errorf("linalg: LU.Solve dimension mismatch: n=%d len(x)=%d len(b)=%d", n, len(x), len(b))
	}
	// Apply permutation into a scratch ordering held in x.
	if &x[0] == &b[0] {
		tmp := make([]float64, n)
		for i := 0; i < n; i++ {
			tmp[i] = b[f.piv[i]]
		}
		copy(x, tmp)
	} else {
		for i := 0; i < n; i++ {
			x[i] = b[f.piv[i]]
		}
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		row := f.lu[i*n : i*n+i]
		s := x[i]
		for j, v := range row {
			s -= v * x[j]
		}
		x[i] = s
	}
	// Back substitution with upper triangle.
	for i := n - 1; i >= 0; i-- {
		row := f.lu[i*n : (i+1)*n]
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		d := row[i]
		if d == 0 {
			return ErrSingular
		}
		x[i] = s / d
	}
	return nil
}

// SolveInto is a convenience wrapper that allocates and returns the solution.
func (f *LU) SolveInto(b []float64) ([]float64, error) {
	x := make([]float64, f.n)
	if err := f.Solve(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveDense solves A*x = b for a dense square A without retaining the
// factorization. Prefer Factor + repeated Solve when the same matrix is
// reused.
func SolveDense(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.SolveInto(b)
}
