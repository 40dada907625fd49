package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatrixAccessors(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 1, 5)
	m.Add(0, 1, 2)
	if m.At(0, 1) != 7 {
		t.Errorf("At(0,1) = %g, want 7", m.At(0, 1))
	}
	if len(m.Row(1)) != 3 {
		t.Errorf("Row length = %d, want 3", len(m.Row(1)))
	}
}

func TestMulVec(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 3)
	m.Set(1, 1, 4)
	dst := make([]float64, 2)
	m.MulVec(dst, []float64{1, 1})
	if dst[0] != 3 || dst[1] != 7 {
		t.Errorf("MulVec = %v, want [3 7]", dst)
	}
}

func TestLUSolveKnownSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10 -> x = 1, y = 3
	a := NewMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	x, err := SolveDense(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("solution = %v, want [1 3]", x)
	}
}

func TestLUSingular(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := Factor(a); err == nil {
		t.Error("singular matrix factored without error")
	}
}

func TestLUNonSquare(t *testing.T) {
	if _, err := Factor(NewMatrix(2, 3)); err == nil {
		t.Error("non-square matrix accepted")
	}
}

func TestLUPivotingStability(t *testing.T) {
	// Tiny leading pivot forces a row swap; without pivoting this system
	// loses all precision.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1e-18)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 1)
	x, err := SolveDense(a, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-9 || math.Abs(x[1]-1) > 1e-9 {
		t.Errorf("pivoted solution = %v, want ~[1 1]", x)
	}
}

func TestLUSolveAliased(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 4)
	a.Set(1, 1, 2)
	v := []float64{8, 6}
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Solve(v, v); err != nil {
		t.Fatal(err)
	}
	if math.Abs(v[0]-2) > 1e-12 || math.Abs(v[1]-3) > 1e-12 {
		t.Errorf("aliased solve = %v, want [2 3]", v)
	}
}

// Property: for random diagonally dominant systems, LU solve satisfies
// A*x = b to tight tolerance.
func TestLUSolveResidualProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(30)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			rowSum := 0.0
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				v := rng.NormFloat64()
				a.Set(i, j, v)
				rowSum += math.Abs(v)
			}
			a.Set(i, i, rowSum+1+rng.Float64())
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64() * 10
		}
		x, err := SolveDense(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		res := make([]float64, n)
		a.MulVec(res, x)
		for i := range res {
			res[i] -= b[i]
		}
		if normInf(res) > 1e-8*(1+normInf(b)) {
			t.Fatalf("trial %d: residual %g too large", trial, normInf(res))
		}
	}
}

// normInf returns the maximum absolute entry of v.
func normInf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = max(m, math.Abs(x))
	}
	return m
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
	d := s.ToDense()
	want := [][]float64{
		{1.5, -1, 0},
		{-1, 2, -1},
		{0, -1, 1.5},
	}
	for i := range want {
		for j := range want[i] {
			if math.Abs(d.At(i, j)-want[i][j]) > 1e-12 {
				t.Errorf("S[%d][%d] = %g, want %g", i, j, d.At(i, j), want[i][j])
			}
		}
	}
	if s.MaxOffDiagAsymmetry() > 0 {
		t.Error("stamped matrix is not symmetric")
	}
}

func TestSparseMulVecMatchesDense(t *testing.T) {
	s := buildLaplacian(10)
	d := s.ToDense()
	x := make([]float64, 10)
	for i := range x {
		x[i] = float64(i) - 4.5
	}
	got := make([]float64, 10)
	want := make([]float64, 10)
	s.MulVec(got, x)
	d.MulVec(want, x)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("row %d: sparse %g dense %g", i, got[i], want[i])
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
		if s.MaxOffDiagAsymmetry() > 1e-12 {
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
