package linalg

import (
	"fmt"
	"sort"
)

// SparseBuilder accumulates coefficients for a sparse square matrix in
// coordinate form, merging duplicate (i, j) entries by addition. It is the
// natural interface for assembling RC conductance matrices, where each
// resistor stamps four entries.
type SparseBuilder struct {
	n       int
	entries map[[2]int]float64
}

// NewSparseBuilder returns a builder for an n x n matrix.
func NewSparseBuilder(n int) *SparseBuilder {
	if n <= 0 {
		panic(fmt.Sprintf("linalg: invalid sparse dimension %d", n))
	}
	return &SparseBuilder{n: n, entries: make(map[[2]int]float64)}
}

// Add accumulates v into entry (i, j).
func (b *SparseBuilder) Add(i, j int, v float64) {
	if i < 0 || i >= b.n || j < 0 || j >= b.n {
		panic(fmt.Sprintf("linalg: sparse index (%d,%d) out of range for n=%d", i, j, b.n))
	}
	b.entries[[2]int{i, j}] += v
}

// StampConductance stamps a conductance g between nodes i and j using the
// standard nodal-analysis pattern: +g on both diagonals, -g off-diagonal.
func (b *SparseBuilder) StampConductance(i, j int, g float64) {
	b.Add(i, i, g)
	b.Add(j, j, g)
	b.Add(i, j, -g)
	b.Add(j, i, -g)
}

// StampGroundConductance stamps a conductance g from node i to ground
// (e.g. convection to the fixed ambient).
func (b *SparseBuilder) StampGroundConductance(i int, g float64) {
	b.Add(i, i, g)
}

// Build finalizes the builder into a CSR sparse matrix.
func (b *SparseBuilder) Build() *Sparse {
	type coord struct {
		i, j int
		v    float64
	}
	coords := make([]coord, 0, len(b.entries))
	for ij, v := range b.entries {
		if v == 0 {
			continue
		}
		coords = append(coords, coord{ij[0], ij[1], v})
	}
	sort.Slice(coords, func(a, c int) bool {
		if coords[a].i != coords[c].i {
			return coords[a].i < coords[c].i
		}
		return coords[a].j < coords[c].j
	})
	s := &Sparse{
		N:      b.n,
		RowPtr: make([]int, b.n+1),
		Col:    make([]int, len(coords)),
		Val:    make([]float64, len(coords)),
	}
	for k, c := range coords {
		s.Col[k] = c.j
		s.Val[k] = c.v
		s.RowPtr[c.i+1]++
	}
	for i := 0; i < b.n; i++ {
		s.RowPtr[i+1] += s.RowPtr[i]
	}
	return s
}

// Sparse is a square sparse matrix in compressed sparse row (CSR) form.
type Sparse struct {
	N      int
	RowPtr []int // len N+1
	Col    []int
	Val    []float64
}

// NNZ returns the number of stored nonzeros.
func (s *Sparse) NNZ() int { return len(s.Val) }

// MulVec computes dst = S * x. dst and x must not alias.
func (s *Sparse) MulVec(dst, x []float64) {
	if len(dst) != s.N || len(x) != s.N {
		panic(fmt.Sprintf("linalg: sparse MulVec dimension mismatch n=%d dst=%d x=%d", s.N, len(dst), len(x)))
	}
	for i := 0; i < s.N; i++ {
		sum := 0.0
		for k := s.RowPtr[i]; k < s.RowPtr[i+1]; k++ {
			sum += s.Val[k] * x[s.Col[k]]
		}
		dst[i] = sum
	}
}

// AddDiag returns a new sparse matrix equal to s plus diag(d). Rows whose
// diagonal entry is absent from s gain one. s is not modified; the result
// shares no storage with s. It is how the transient integrator forms
// C/dt + G without densifying.
func (s *Sparse) AddDiag(d []float64) *Sparse {
	if len(d) != s.N {
		panic(fmt.Sprintf("linalg: AddDiag dimension mismatch n=%d d=%d", s.N, len(d)))
	}
	out := &Sparse{
		N:      s.N,
		RowPtr: make([]int, s.N+1),
		Col:    make([]int, 0, s.NNZ()+s.N),
		Val:    make([]float64, 0, s.NNZ()+s.N),
	}
	for i := 0; i < s.N; i++ {
		placed := false
		for k := s.RowPtr[i]; k < s.RowPtr[i+1]; k++ {
			c, v := s.Col[k], s.Val[k]
			if !placed && c >= i {
				if c == i {
					v += d[i]
				} else {
					out.Col = append(out.Col, i)
					out.Val = append(out.Val, d[i])
				}
				placed = true
			}
			out.Col = append(out.Col, c)
			out.Val = append(out.Val, v)
		}
		if !placed {
			out.Col = append(out.Col, i)
			out.Val = append(out.Val, d[i])
		}
		out.RowPtr[i+1] = len(out.Col)
	}
	return out
}

// Diag extracts the diagonal of s into a new slice.
func (s *Sparse) Diag() []float64 {
	d := make([]float64, s.N)
	for i := 0; i < s.N; i++ {
		for k := s.RowPtr[i]; k < s.RowPtr[i+1]; k++ {
			if s.Col[k] == i {
				d[i] = s.Val[k]
				break
			}
		}
	}
	return d
}
