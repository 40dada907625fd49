package linalg

import (
	"fmt"
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
		{"natural-order", 30, 25, 5, func(s *Sparse) (*Cholesky, error) {
			perm := make([]int, s.N)
			for i := range perm {
				perm[i] = i
			}
			return factorCholesky(s, perm)
		}, 3},
		{"rcm-order", 30, 25, 5, func(s *Sparse) (*Cholesky, error) { return factorCholesky(s, RCM(s)) }, 3},
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
// batching layer promises byte-identical per-job records. The lane
// counts reach every mix of the kernel's 8-lane blocks, 4-lane blocks
// and single-lane tails.
func TestCholeskySolvePanel(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	systems := []struct {
		name string
		s    *Sparse
	}{
		{"rcm-block", randSPDSystem(rng, 30, 25)}, // n < 200: RCM ordering
		{"mindeg-grid", gridLaplacian(16, 16)},    // n >= 200: minimum degree
	}
	// Signed-zero lanes are -0 except for one +0 entry, so every forward
	// pivot is zero: unless a block with a zero pivot falls back to the
	// scalar path's per-lane skip, x -= v*0 turns -0 targets into +0.
	// Mixed panels interleave them with ordinary lanes in one block.
	fills := []struct {
		name       string
		signedZero func(lane int) bool
	}{
		{"normal", func(int) bool { return false }},
		{"signed-zero", func(int) bool { return true }},
		{"mixed", func(l int) bool { return l%2 == 1 }},
	}
	for _, sys := range systems {
		t.Run(sys.name, func(t *testing.T) {
			f, err := FactorCholesky(sys.s)
			if err != nil {
				t.Fatal(err)
			}
			n := sys.s.N
			for _, fill := range fills {
				for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 13, 16, 17} {
					rhs := make([]float64, n*k)
					for l := 0; l < k; l++ {
						lane := rhs[l*n : (l+1)*n]
						if !fill.signedZero(l) {
							for i := range lane {
								lane[i] = rng.NormFloat64()
							}
							continue
						}
						for i := range lane {
							lane[i] = math.Copysign(0, -1)
						}
						lane[rng.Intn(n)] = 0
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
						if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s k=%d: panel[%d]=%g, buffered=%g", fill.name, k, i, dst[i], want[i])
						}
					}
					// In-place: dst aliasing rhs must give the same answer.
					inPlace := append([]float64(nil), rhs...)
					if err := f.SolvePanel(inPlace, inPlace, k, scratch); err != nil {
						t.Fatal(err)
					}
					for i := range inPlace {
						if math.Float64bits(inPlace[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s k=%d aliased: panel[%d]=%g, buffered=%g", fill.name, k, i, inPlace[i], want[i])
						}
					}
					allocs := testing.AllocsPerRun(20, func() {
						if err := f.SolvePanel(inPlace, inPlace, k, scratch); err != nil {
							t.Fatal(err)
						}
					})
					if allocs != 0 {
						t.Fatalf("%s k=%d: SolvePanel allocates %.1f per call, want 0", fill.name, k, allocs)
					}
				}
			}
		})
	}
}

// FuzzSolvePanel fuzzes the same bitwise contract over random RC-shaped
// systems on both sides of FactorCholesky's 200-node switch from RCM to
// minimum-degree ordering, 1 to 20 lanes, and right-hand sides whose
// entries, chosen by the pattern bytes, mix ordinary values with ±0,
// subnormals, ±Inf and NaN.
func FuzzSolvePanel(f *testing.F) {
	f.Add(int64(1), uint16(28), uint8(7), []byte{1, 1, 1, 0})
	f.Add(int64(2), uint16(197), uint8(12), []byte{1, 0, 200, 201, 255})
	f.Add(int64(3), uint16(198), uint8(15), []byte{2, 3, 4, 5, 6, 7, 8})
	f.Add(int64(4), uint16(258), uint8(19), []byte{9, 10, 128})
	specials := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -0x1p-1050,
		math.Inf(1), math.Inf(-1), math.NaN(),
		1, -1, math.MaxFloat64,
	}
	f.Fuzz(func(t *testing.T, seed int64, size uint16, lanes uint8, pattern []byte) {
		n := 2 + int(size)%299 // 2..300
		k := 1 + int(lanes)%20
		rng := rand.New(rand.NewSource(seed))
		fac, err := FactorCholesky(randSPDSystem(rng, n, n))
		if err != nil {
			t.Fatal(err)
		}
		rhs := make([]float64, n*k)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
			if len(pattern) > 0 {
				if c := int(pattern[i%len(pattern)]) % 16; c < len(specials) {
					rhs[i] = specials[c]
				}
			}
		}
		want := make([]float64, n*k)
		scratch := make([]float64, n*k)
		for l := 0; l < k; l++ {
			if err := fac.SolveBuffered(want[l*n:(l+1)*n], rhs[l*n:(l+1)*n], scratch[:n]); err != nil {
				t.Fatal(err)
			}
		}
		if err := fac.SolvePanel(rhs, rhs, k, scratch); err != nil {
			t.Fatal(err)
		}
		for i := range rhs {
			if math.Float64bits(rhs[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d k=%d: panel[%d]=%g (%#x), buffered=%g (%#x)",
					n, k, i, rhs[i], math.Float64bits(rhs[i]), want[i], math.Float64bits(want[i]))
			}
		}
	})
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
// sweep batch path exercises. Grouped sweeps dispatch panels of up to
// 16 lanes (sweep's chunk cap) and their remainders, hence the 12-
// and 16-lane panels beside the 8-lane pair. Run with -benchmem: all
// must report zero allocations.
func BenchmarkSolvePanel(b *testing.B) {
	s := gridLaplacian(32, 32)
	f, err := FactorCholesky(s)
	if err != nil {
		b.Fatal(err)
	}
	n := s.N
	rhs := make([]float64, n*16)
	for i := range rhs {
		rhs[i] = float64(i%11) - 5
	}
	for _, k := range []int{8, 12, 16} {
		b.Run(fmt.Sprintf("panel%d", k), func(b *testing.B) {
			dst := make([]float64, n*k)
			scratch := make([]float64, n*k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := f.SolvePanel(dst, rhs[:n*k], k, scratch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	const k = 8
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
