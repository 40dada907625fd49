package linalg

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randSPDSystem builds a random symmetric diagonally dominant sparse
// system shaped like an RC conductance network: a random connected graph
// with positive conductance stamps plus a few ground conductances.
func randSPDSystem(rng *rand.Rand, n, extraEdges int) *Sparse {
	sb := NewSparseBuilder(n)
	// Spanning path guarantees connectivity.
	for i := 0; i+1 < n; i++ {
		sb.StampConductance(i, i+1, 0.1+rng.Float64())
	}
	for e := 0; e < extraEdges; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		sb.StampConductance(i, j, 0.1+rng.Float64())
	}
	// Ground a handful of nodes so the system is nonsingular.
	for g := 0; g < 1+n/8; g++ {
		sb.StampGroundConductance(rng.Intn(n), 0.5+rng.Float64())
	}
	return sb.Build()
}

// TestCholeskyMatchesDense cross-validates the sparse LDLᵀ path against
// the dense LU reference on seeded random SPD systems of varying size
// and density, for both the RCM and natural orderings.
func TestCholeskyMatchesDense(t *testing.T) {
	cases := []struct {
		name       string
		n, extra   int
		seed       int64
		factor     func(*Sparse) (*Cholesky, error)
		iterations int
	}{
		{"path-tiny", 5, 0, 1, FactorCholesky, 3},
		{"sparse-small", 20, 10, 2, FactorCholesky, 3},
		{"sparse-mid", 60, 50, 3, FactorCholesky, 3},
		{"dense-ish", 40, 300, 4, FactorCholesky, 3},
		{"natural-order", 30, 25, 5, FactorCholeskyNatural, 3},
		{"rcm-order", 30, 25, 5, FactorCholeskyRCM, 3},
		{"large", 200, 180, 6, FactorCholesky, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			for it := 0; it < tc.iterations; it++ {
				s := randSPDSystem(rng, tc.n, tc.extra)
				f, err := tc.factor(s)
				if err != nil {
					t.Fatalf("FactorCholesky: %v", err)
				}
				b := make([]float64, tc.n)
				for i := range b {
					b[i] = rng.NormFloat64()
				}
				x := make([]float64, tc.n)
				if err := f.Solve(x, b); err != nil {
					t.Fatalf("Solve: %v", err)
				}
				want, err := SolveDense(s.ToDense(), b)
				if err != nil {
					t.Fatalf("SolveDense: %v", err)
				}
				for i := range x {
					if d := math.Abs(x[i] - want[i]); d > 1e-8 {
						t.Fatalf("iteration %d: x[%d] sparse %g dense %g (|Δ|=%g)", it, i, x[i], want[i], d)
					}
				}
				// Residual check keeps the comparison honest even if
				// both paths drifted together.
				ax := make([]float64, tc.n)
				s.MulVec(ax, x)
				for i := range ax {
					if d := math.Abs(ax[i] - b[i]); d > 1e-8*(1+math.Abs(b[i])) {
						t.Fatalf("iteration %d: residual %g at row %d", it, d, i)
					}
				}
			}
		})
	}
}

// TestCholeskySolveAliased verifies x and b may alias, matching the LU
// contract the transient integrator relies on.
func TestCholeskySolveAliased(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := randSPDSystem(rng, 25, 20)
	f, err := FactorCholesky(s)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 25)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want := make([]float64, 25)
	if err := f.Solve(want, b); err != nil {
		t.Fatal(err)
	}
	if err := f.Solve(b, b); err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if b[i] != want[i] {
			t.Fatalf("aliased solve differs at %d: %g vs %g", i, b[i], want[i])
		}
	}
}

// TestCholeskyRejectsIndefinite ensures a non-PD matrix is reported
// rather than silently mis-factored.
func TestCholeskyRejectsIndefinite(t *testing.T) {
	sb := NewSparseBuilder(2)
	sb.Add(0, 0, 1)
	sb.Add(1, 1, -1)
	s := sb.Build()
	if _, err := FactorCholesky(s); err == nil {
		t.Fatal("expected error for indefinite matrix")
	}
}

// TestAddDiag checks AddDiag against dense addition, including rows with
// a missing diagonal entry.
func TestAddDiag(t *testing.T) {
	sb := NewSparseBuilder(4)
	sb.StampConductance(0, 1, 2)
	sb.Add(2, 3, 1) // row 2 and 3 have no diagonal
	sb.Add(3, 2, 1)
	s := sb.Build()
	d := []float64{10, 20, 30, 40}
	got := s.AddDiag(d).ToDense()
	want := s.ToDense()
	for i := range d {
		want.Add(i, i, d[i])
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if got.At(i, j) != want.At(i, j) {
				t.Fatalf("AddDiag mismatch at (%d,%d): %g vs %g", i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

// TestRowAbsSums cross-checks against the dense Gershgorin helper.
func TestRowAbsSums(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := randSPDSystem(rng, 15, 10)
	sums := s.RowAbsSums()
	d := s.ToDense()
	for i := 0; i < s.N; i++ {
		r := 0.0
		for _, v := range d.Row(i) {
			r += math.Abs(v)
		}
		if math.Abs(r-sums[i]) > 1e-12 {
			t.Fatalf("row %d: sparse %g dense %g", i, sums[i], r)
		}
	}
}

// TestOrderingsArePermutations validates RCM and MinDegree on
// disconnected graphs.
func TestOrderingsArePermutations(t *testing.T) {
	sb := NewSparseBuilder(9)
	// Two components plus an isolated grounded vertex.
	sb.StampConductance(0, 1, 1)
	sb.StampConductance(1, 2, 1)
	sb.StampConductance(3, 4, 1)
	sb.StampConductance(4, 5, 1)
	sb.StampConductance(5, 6, 1)
	sb.StampConductance(6, 7, 1)
	sb.StampGroundConductance(8, 1)
	s := sb.Build()
	for name, order := range map[string]func(*Sparse) []int{"RCM": RCM, "MinDegree": MinDegree} {
		perm := order(s)
		if len(perm) != 9 {
			t.Fatalf("%s: perm has %d entries, want 9", name, len(perm))
		}
		seen := make([]bool, 9)
		for _, p := range perm {
			if p < 0 || p >= 9 || seen[p] {
				t.Fatalf("%s: invalid permutation %v", name, perm)
			}
			seen[p] = true
		}
	}
}

// hubGrid builds the hub topology of a thermal network's package
// coupling: a rows x cols grid whose cells all couple to a few hub
// nodes, one of which is grounded.
func hubGrid(rows, cols, hubs int) *Sparse {
	n := rows*cols + hubs
	sb := NewSparseBuilder(n)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				sb.StampConductance(id(r, c), id(r, c+1), 1)
			}
			if r+1 < rows {
				sb.StampConductance(id(r, c), id(r+1, c), 1)
			}
			for h := 0; h < hubs; h++ {
				sb.StampConductance(id(r, c), rows*cols+h, 0.5)
			}
		}
	}
	sb.StampGroundConductance(rows*cols, 1)
	return sb.Build()
}

// TestMinDegreeBoundsHubFill checks that minimum degree keeps fill low
// on a hub topology. RCM degrades here; MinDegree must keep nnz(L)
// within a small multiple of nnz(A).
func TestMinDegreeBoundsHubFill(t *testing.T) {
	s := hubGrid(24, 24, 5)
	f, err := FactorCholesky(s)
	if err != nil {
		t.Fatal(err)
	}
	if limit := 4 * s.NNZ(); f.NNZ() > limit {
		t.Fatalf("minimum-degree fill too high: nnz(L)=%d, nnz(A)=%d", f.NNZ(), s.NNZ())
	}
}

// TestMinDegreeDeterministic pins that the ordering is a pure function
// of the sparsity pattern: repeated calls on one grid system return one
// permutation, so factorizations — and the grid-mode records built on
// them — are bitwise reproducible across calls and processes.
func TestMinDegreeDeterministic(t *testing.T) {
	s := hubGrid(24, 24, 5)
	rng := rand.New(rand.NewSource(12))
	b := make([]float64, s.N)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	solve := func() []float64 {
		t.Helper()
		f, err := FactorCholesky(s)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, s.N)
		if err := f.Solve(x, b); err != nil {
			t.Fatal(err)
		}
		return x
	}
	perm, x := MinDegree(s), solve()
	for call := 1; call < 10; call++ {
		if got := MinDegree(s); !reflect.DeepEqual(got, perm) {
			t.Fatalf("call %d returned a different permutation", call)
		}
		for i, v := range solve() {
			if math.Float64bits(v) != math.Float64bits(x[i]) {
				t.Fatalf("call %d: solve differs at row %d: %g vs %g", call, i, v, x[i])
			}
		}
	}
}

func BenchmarkCholeskyFactorGrid(b *testing.B) {
	s := gridLaplacian(32, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FactorCholesky(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCholeskySolveGrid(b *testing.B) {
	s := gridLaplacian(32, 32)
	f, err := FactorCholesky(s)
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, s.N)
	x := make([]float64, s.N)
	for i := range rhs {
		rhs[i] = float64(i%7) - 3
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Solve(x, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

// gridLaplacian builds a grounded 5-point Laplacian, the sparsity shape
// of grid-mode thermal layers.
func gridLaplacian(rows, cols int) *Sparse {
	sb := NewSparseBuilder(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				sb.StampConductance(id(r, c), id(r, c+1), 1)
			}
			if r+1 < rows {
				sb.StampConductance(id(r, c), id(r+1, c), 1)
			}
		}
	}
	sb.StampGroundConductance(id(0, 0), 1)
	sb.StampGroundConductance(id(rows-1, cols-1), 1)
	return sb.Build()
}

// TestCholeskySolvePanel pins the batched panel solve to the scalar
// buffered path bit for bit: for every lane, SolvePanel must produce
// exactly the floats SolveBuffered produces on that lane's column —
// including on the minimum-degree grid ordering — because the sweep
// batching layer promises byte-identical per-job records.
func TestCholeskySolvePanel(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	systems := map[string]*Sparse{
		"rcm-block":   randSPDSystem(rng, 30, 25), // n < 200: RCM ordering
		"mindeg-grid": gridLaplacian(16, 16),      // n >= 200: minimum degree
	}
	for name, s := range systems {
		t.Run(name, func(t *testing.T) {
			f, err := FactorCholesky(s)
			if err != nil {
				t.Fatal(err)
			}
			n := s.N
			for _, k := range []int{1, 2, 5, 8} {
				rhs := make([]float64, n*k)
				for i := range rhs {
					rhs[i] = rng.NormFloat64()
				}
				want := make([]float64, n*k)
				scratch := make([]float64, n*k)
				for l := 0; l < k; l++ {
					if err := f.SolveBuffered(want[l*n:(l+1)*n], rhs[l*n:(l+1)*n], scratch[:n]); err != nil {
						t.Fatal(err)
					}
				}
				dst := make([]float64, n*k)
				if err := f.SolvePanel(dst, rhs, k, scratch); err != nil {
					t.Fatal(err)
				}
				for i := range dst {
					if dst[i] != want[i] {
						t.Fatalf("k=%d: panel[%d]=%g, buffered=%g", k, i, dst[i], want[i])
					}
				}
				// In-place: dst aliasing rhs must give the same answer.
				inPlace := append([]float64(nil), rhs...)
				if err := f.SolvePanel(inPlace, inPlace, k, scratch); err != nil {
					t.Fatal(err)
				}
				for i := range inPlace {
					if inPlace[i] != want[i] {
						t.Fatalf("k=%d aliased: panel[%d]=%g, buffered=%g", k, i, inPlace[i], want[i])
					}
				}
				allocs := testing.AllocsPerRun(20, func() {
					if err := f.SolvePanel(inPlace, inPlace, k, scratch); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Fatalf("k=%d: SolvePanel allocates %.1f per call, want 0", k, allocs)
				}
			}
		})
	}
}

// TestCholeskySolvePanelValidation covers the panel contract errors.
func TestCholeskySolvePanelValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randSPDSystem(rng, 10, 8)
	f, err := FactorCholesky(s)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 10*2)
	if err := f.SolvePanel(buf, buf, 0, buf); err == nil {
		t.Fatal("expected error for k=0")
	}
	if err := f.SolvePanel(buf[:10], buf, 2, buf); err == nil {
		t.Fatal("expected error for short dst")
	}
	if err := f.SolvePanel(buf, buf, 2, buf[:10]); err == nil {
		t.Fatal("expected error for short scratch")
	}
}

// BenchmarkSolvePanel measures the blocked k-lane solve against k
// sequential buffered solves on the grid-ordering factorization the
// sweep batch path exercises. Run with -benchmem: both must report
// zero allocations.
func BenchmarkSolvePanel(b *testing.B) {
	s := gridLaplacian(32, 32)
	f, err := FactorCholesky(s)
	if err != nil {
		b.Fatal(err)
	}
	n := s.N
	const k = 8
	rhs := make([]float64, n*k)
	for i := range rhs {
		rhs[i] = float64(i%11) - 5
	}
	b.Run("panel8", func(b *testing.B) {
		dst := make([]float64, n*k)
		scratch := make([]float64, n*k)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := f.SolvePanel(dst, rhs, k, scratch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sequential8", func(b *testing.B) {
		dst := make([]float64, n*k)
		scratch := make([]float64, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for l := 0; l < k; l++ {
				if err := f.SolveBuffered(dst[l*n:(l+1)*n], rhs[l*n:(l+1)*n], scratch); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
