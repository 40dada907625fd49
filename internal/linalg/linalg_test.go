package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

// at returns entry (i, j) of s by a CSR row lookup, 0 when (i, j) is
// not stored.
func at(s *Sparse, i, j int) float64 {
	for k := s.RowPtr[i]; k < s.RowPtr[i+1]; k++ {
		if s.Col[k] == j {
			return s.Val[k]
		}
	}
	return 0
}

// maxAsymmetry returns the largest |S[i][j]-S[j][i]|.
func maxAsymmetry(s *Sparse) float64 {
	worst := 0.0
	for i := 0; i < s.N; i++ {
		for k := s.RowPtr[i]; k < s.RowPtr[i+1]; k++ {
			worst = max(worst, math.Abs(s.Val[k]-at(s, s.Col[k], i)))
		}
	}
	return worst
}

func buildLaplacian(n int) *Sparse {
	// 1D chain Laplacian with grounding at both ends: SPD.
	b := NewSparseBuilder(n)
	for i := 0; i < n-1; i++ {
		b.StampConductance(i, i+1, 1.0)
	}
	b.StampGroundConductance(0, 0.5)
	b.StampGroundConductance(n-1, 0.5)
	return b.Build()
}

func TestSparseBuilderStamp(t *testing.T) {
	s := buildLaplacian(3)
	want := [][]float64{
		{1.5, -1, 0},
		{-1, 2, -1},
		{0, -1, 1.5},
	}
	for i := range want {
		for j := range want[i] {
			if got := at(s, i, j); math.Abs(got-want[i][j]) > 1e-12 {
				t.Errorf("S[%d][%d] = %g, want %g", i, j, got, want[i][j])
			}
		}
	}
	if s.NNZ() != 7 {
		t.Errorf("NNZ = %d, want 7 (the zero corners are not stored)", s.NNZ())
	}
	if maxAsymmetry(s) > 0 {
		t.Error("stamped matrix is not symmetric")
	}
}

// TestSparseMulVecMatchesDense checks MulVec on the grounded chain
// Laplacian against the product worked out by hand: an interior row
// gives 2x[i] - x[i-1] - x[i+1], and an end row 1.5x[i] minus its one
// neighbour.
func TestSparseMulVecMatchesDense(t *testing.T) {
	s := buildLaplacian(10)
	x := make([]float64, 10)
	for i := range x {
		x[i] = float64(i) - 4.5
	}
	got := make([]float64, 10)
	s.MulVec(got, x)
	// x is linear in i, so every interior row sums to 0; the end rows
	// read 1.5·(-4.5) - (-3.5) = -3.25 and 1.5·4.5 - 3.5 = 3.25.
	want := []float64{-3.25, 0, 0, 0, 0, 0, 0, 0, 0, 3.25}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("row %d: MulVec %g, by hand %g", i, got[i], want[i])
		}
	}
}

func TestSparseDiag(t *testing.T) {
	s := buildLaplacian(4)
	d := s.Diag()
	want := []float64{1.5, 2, 2, 1.5}
	for i := range want {
		if math.Abs(d[i]-want[i]) > 1e-12 {
			t.Errorf("diag[%d] = %g, want %g", i, d[i], want[i])
		}
	}
}

// Property: conductance stamping always yields symmetric matrices with
// non-negative diagonals.
func TestStampSymmetryProperty(t *testing.T) {
	f := func(edges []uint16) bool {
		n := 8
		b := NewSparseBuilder(n)
		for _, e := range edges {
			i := int(e) % n
			j := int(e/8) % n
			if i == j {
				continue
			}
			g := 0.1 + float64(e%100)/50
			b.StampConductance(i, j, g)
		}
		b.StampGroundConductance(0, 1)
		s := b.Build()
		if maxAsymmetry(s) > 1e-12 {
			return false
		}
		for _, d := range s.Diag() {
			if d < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
