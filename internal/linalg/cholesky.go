package linalg

import (
	"fmt"
)

// Solver is a factored linear system that can be solved repeatedly
// against different right-hand sides. Both the dense LU and the sparse
// Cholesky factorizations implement it, so callers (e.g. the thermal
// transient integrator) can swap paths without branching per step.
type Solver interface {
	// Solve solves A*x = b, writing the solution into x. x and b must
	// both have length N(); they may alias each other.
	Solve(x, b []float64) error
	// N returns the dimension of the factored system.
	N() int
}

// Cholesky is a sparse LDLᵀ factorization of a symmetric positive-
// definite matrix: P·A·Pᵀ = L·D·Lᵀ, with L unit lower triangular stored
// in compressed-sparse-column form, D a positive diagonal, and P a
// fill-reducing (minimum-degree) permutation.
//
// The algorithm is the up-looking LDLᵀ of Davis' LDL package: a symbolic
// pass builds the elimination tree and exact column counts, then the
// numeric pass computes one row of L at a time via a sparse triangular
// solve along the tree. No pivoting is performed — the RC conductance
// systems this package serves are symmetric diagonally dominant, for
// which LDLᵀ is unconditionally stable.
type Cholesky struct {
	n    int
	perm []int // perm[new] = old index
	// L (unit diagonal implied) in CSC over the permuted matrix.
	colPtr []int
	rowIdx []int
	val    []float64
	d      []float64 // D diagonal
}

// FactorCholesky computes the sparse LDLᵀ factorization of the symmetric
// positive-definite matrix s. The input is not modified and may be
// shared. It returns ErrSingular when a diagonal pivot is not strictly
// positive (s is not positive definite to working precision).
//
// The fill-reducing ordering is chosen by size: small systems use the
// cheap reverse Cuthill-McKee ordering (at block-model scale any fill is
// affordable and the ordering cost itself dominates), larger ones use
// minimum degree, which keeps fill low even on the hub topology of
// grid-mode networks where a few package nodes couple to every
// bottom-layer cell.
func FactorCholesky(s *Sparse) (*Cholesky, error) {
	const minDegreeThreshold = 200
	if s.N < minDegreeThreshold {
		return factorCholesky(s, RCM(s))
	}
	return factorCholesky(s, MinDegree(s))
}

func factorCholesky(s *Sparse, perm []int) (*Cholesky, error) {
	n := s.N
	iperm := make([]int, n)
	for k, old := range perm {
		iperm[old] = k
	}

	// Upper triangle of the permuted matrix in CSC: column j holds the
	// entries A'(i,j) with i <= j, where A'(i,j) = A(perm[i], perm[j]).
	// By symmetry column j of the upper triangle is row perm[j] of A
	// restricted to columns that map to indices <= j.
	up := make([]int, n+1)
	for j := 0; j < n; j++ {
		oj := perm[j]
		for k := s.RowPtr[oj]; k < s.RowPtr[oj+1]; k++ {
			if iperm[s.Col[k]] <= j {
				up[j+1]++
			}
		}
	}
	for j := 0; j < n; j++ {
		up[j+1] += up[j]
	}
	ai := make([]int, up[n])
	ax := make([]float64, up[n])
	pos := make([]int, n)
	copy(pos, up[:n])
	for j := 0; j < n; j++ {
		oj := perm[j]
		for k := s.RowPtr[oj]; k < s.RowPtr[oj+1]; k++ {
			if i := iperm[s.Col[k]]; i <= j {
				ai[pos[j]] = i
				ax[pos[j]] = s.Val[k]
				pos[j]++
			}
		}
	}

	// Symbolic: elimination tree and column counts of L.
	parent := make([]int, n)
	flag := make([]int, n)
	lnz := make([]int, n)
	for j := 0; j < n; j++ {
		parent[j] = -1
		flag[j] = j
		for p := up[j]; p < up[j+1]; p++ {
			for i := ai[p]; flag[i] != j; i = parent[i] {
				if parent[i] == -1 {
					parent[i] = j
				}
				lnz[i]++
				flag[i] = j
			}
		}
	}
	f := &Cholesky{
		n:      n,
		perm:   perm,
		colPtr: make([]int, n+1),
		d:      make([]float64, n),
	}
	for j := 0; j < n; j++ {
		f.colPtr[j+1] = f.colPtr[j] + lnz[j]
	}
	f.rowIdx = make([]int, f.colPtr[n])
	f.val = make([]float64, f.colPtr[n])

	// Numeric: compute row j of L by a sparse triangular solve whose
	// pattern is the row subtree of the elimination tree, visited in
	// topological order.
	y := make([]float64, n)
	pattern := make([]int, n)
	for i := range lnz {
		lnz[i] = 0
	}
	for j := 0; j < n; j++ {
		top := n
		flag[j] = j
		for p := up[j]; p < up[j+1]; p++ {
			i := ai[p]
			y[i] += ax[p]
			ln := 0
			for ; flag[i] != j; i = parent[i] {
				pattern[ln] = i
				ln++
				flag[i] = j
			}
			for ln > 0 {
				ln--
				top--
				pattern[top] = pattern[ln]
			}
		}
		dj := y[j]
		y[j] = 0
		for ; top < n; top++ {
			i := pattern[top]
			yi := y[i]
			y[i] = 0
			p2 := f.colPtr[i] + lnz[i]
			for p := f.colPtr[i]; p < p2; p++ {
				y[f.rowIdx[p]] -= f.val[p] * yi
			}
			lji := yi / f.d[i]
			dj -= lji * yi
			f.rowIdx[p2] = j
			f.val[p2] = lji
			lnz[i]++
		}
		if dj <= 0 {
			return nil, fmt.Errorf("linalg: sparse Cholesky pivot %g at column %d (matrix not positive definite): %w", dj, j, ErrSingular)
		}
		f.d[j] = dj
	}
	return f, nil
}

// N returns the dimension of the factored matrix.
func (f *Cholesky) N() int { return f.n }

// NNZ returns the number of stored nonzeros in L (fill-in included,
// unit diagonal excluded).
func (f *Cholesky) NNZ() int { return len(f.val) }

// Solve solves A*x = b, writing the solution into x. b is not modified
// unless x and b alias (which is allowed). Solve allocates an n-length
// scratch vector per call; per-step hot loops should hold a scratch
// buffer and use SolveBuffered instead.
func (f *Cholesky) Solve(x, b []float64) error {
	return f.SolveBuffered(x, b, make([]float64, f.n))
}

// SolveBuffered is Solve with caller-provided scratch of length N(),
// making repeated solves allocation-free. The scratch must not alias x
// or b. A factorization is immutable after construction, so concurrent
// SolveBuffered calls are safe as long as each goroutine owns its
// scratch.
func (f *Cholesky) SolveBuffered(x, b, scratch []float64) error {
	n := f.n
	if len(x) != n || len(b) != n || len(scratch) != n {
		return fmt.Errorf("linalg: Cholesky.Solve dimension mismatch: n=%d len(x)=%d len(b)=%d len(scratch)=%d", n, len(x), len(b), len(scratch))
	}
	f.solveScratch(scratch, b)
	for k, old := range f.perm {
		x[old] = scratch[k]
	}
	return nil
}

// SolvePanel solves A·X = B for a blocked panel of k right-hand sides
// in one pass over the factors. dst and rhs are column-major n×k panels
// (column l occupies [l*n : (l+1)*n]); they may alias each other.
// scratch is caller-owned, must have length n*k, and must not alias dst
// or rhs. SolvePanel performs no allocations.
//
// The panel is gathered into a lane-interleaved layout (the k lane
// values of each node adjacent in memory), so the forward, diagonal,
// and backward sweeps walk L's columns once for all k right-hand
// sides, updating up to 8 adjacent lanes per column entry — cache-
// friendly where the per-column path re-walks L per RHS. Per lane,
// the arithmetic is the exact operation sequence of
// SolveBuffered, so each solution column is bitwise identical to a
// single-RHS solve of that column (the property the batched transient
// integrator's byte-identity contract rests on). Like SolveBuffered it
// is safe for concurrent use as long as each goroutine owns its panels
// and scratch.
func (f *Cholesky) SolvePanel(dst, rhs []float64, k int, scratch []float64) error {
	n := f.n
	if k <= 0 {
		return fmt.Errorf("linalg: Cholesky.SolvePanel needs a positive lane count, got %d", k)
	}
	if len(dst) != n*k || len(rhs) != n*k || len(scratch) != n*k {
		return fmt.Errorf("linalg: Cholesky.SolvePanel dimension mismatch: n=%d k=%d len(dst)=%d len(rhs)=%d len(scratch)=%d",
			n, k, len(dst), len(rhs), len(scratch))
	}
	if k == 1 {
		// One lane is exactly a buffered single solve; skip the
		// interleaving bookkeeping.
		return f.SolveBuffered(dst, rhs, scratch)
	}
	// Gather: lane l of permuted row i at scratch[i*k+l].
	for kn, old := range f.perm {
		base := kn * k
		for l := 0; l < k; l++ {
			scratch[base+l] = rhs[l*n+old]
		}
	}
	f.solvePanelScratch(scratch, k)
	// Scatter back to the column-major panel in original ordering.
	for kn, old := range f.perm {
		base := kn * k
		for l := 0; l < k; l++ {
			dst[l*n+old] = scratch[base+l]
		}
	}
	return nil
}

// solvePanelScratch runs the permuted forward/diagonal/backward sweeps
// in place on a lane-interleaved panel w (lane l of permuted row i at
// w[i*k+l]). Per lane it performs the exact operation sequence of
// solveScratch — including the skip of zero pivot values in the forward
// sweep, which matters for bitwise identity when signed zeros are in
// play — so lane results match single-RHS solves bit for bit.
//
// Both triangular sweeps walk each column's entries once per block of
// 8 lanes, then 4, then single lanes, holding the block's pivot values
// (forward) or accumulators (backward) in locals the compiler can keep
// in registers, so the loop over a column's entries carries no per-lane
// branch, no reload of the pivots through a possibly aliasing slice,
// and — backward — no store-to-load chain through memory. Blocking only
// interleaves the lanes: within a lane, every update happens in column
// order and, within a column, in entry order, as in solveScratch.
func (f *Cholesky) solvePanelScratch(w []float64, k int) {
	n := f.n
	// L W = B' (unit lower triangular, CSC forward sweep). Row indices
	// lie strictly below the unit diagonal, so a column's pivots are
	// loop-invariant across its updates. A block runs branch-free only
	// when none of its pivots is zero; otherwise its lanes take the
	// scalar path's per-lane skip, which — beyond saving a multiply —
	// preserves the sign of a -0.0 target that x -= v*0 would flip.
	for j := 0; j < n; j++ {
		p0, p1 := f.colPtr[j], f.colPtr[j+1]
		vals := f.val[p0:p1]
		rows := f.rowIdx[p0:p1][:len(vals)]
		bj := j * k
		l := 0
		for ; l+8 <= k; l += 8 {
			x := w[bj+l : bj+l+8 : bj+l+8]
			x0, x1, x2, x3, x4, x5, x6, x7 := x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]
			if x0 == 0 || x1 == 0 || x2 == 0 || x3 == 0 || x4 == 0 || x5 == 0 || x6 == 0 || x7 == 0 {
				forwardLanes(w, rows, vals, k, bj, l, l+8)
				continue
			}
			for i, r := range rows {
				v, b := vals[i], r*k+l
				y := w[b : b+8 : b+8]
				y[0] -= v * x0
				y[1] -= v * x1
				y[2] -= v * x2
				y[3] -= v * x3
				y[4] -= v * x4
				y[5] -= v * x5
				y[6] -= v * x6
				y[7] -= v * x7
			}
		}
		for ; l+4 <= k; l += 4 {
			x := w[bj+l : bj+l+4 : bj+l+4]
			x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
			if x0 == 0 || x1 == 0 || x2 == 0 || x3 == 0 {
				forwardLanes(w, rows, vals, k, bj, l, l+4)
				continue
			}
			for i, r := range rows {
				v, b := vals[i], r*k+l
				y := w[b : b+4 : b+4]
				y[0] -= v * x0
				y[1] -= v * x1
				y[2] -= v * x2
				y[3] -= v * x3
			}
		}
		forwardLanes(w, rows, vals, k, bj, l, k)
	}
	for j := 0; j < n; j++ {
		d := f.d[j]
		bj := j * k
		wj := w[bj : bj+k : bj+k]
		for l := range wj {
			wj[l] /= d
		}
	}
	// Lᵀ W = W (CSC backward sweep): column j's lanes accumulate from
	// already-solved rows below, so a block's lanes of row j are the
	// accumulators, stored once after the column's last entry.
	for j := n - 1; j >= 0; j-- {
		p0, p1 := f.colPtr[j], f.colPtr[j+1]
		vals := f.val[p0:p1]
		rows := f.rowIdx[p0:p1][:len(vals)]
		bj := j * k
		l := 0
		for ; l+8 <= k; l += 8 {
			s := w[bj+l : bj+l+8 : bj+l+8]
			s0, s1, s2, s3, s4, s5, s6, s7 := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]
			for i, r := range rows {
				v, b := vals[i], r*k+l
				y := w[b : b+8 : b+8]
				s0 -= v * y[0]
				s1 -= v * y[1]
				s2 -= v * y[2]
				s3 -= v * y[3]
				s4 -= v * y[4]
				s5 -= v * y[5]
				s6 -= v * y[6]
				s7 -= v * y[7]
			}
			s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7] = s0, s1, s2, s3, s4, s5, s6, s7
		}
		for ; l+4 <= k; l += 4 {
			s := w[bj+l : bj+l+4 : bj+l+4]
			s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
			for i, r := range rows {
				v, b := vals[i], r*k+l
				y := w[b : b+4 : b+4]
				s0 -= v * y[0]
				s1 -= v * y[1]
				s2 -= v * y[2]
				s3 -= v * y[3]
			}
			s[0], s[1], s[2], s[3] = s0, s1, s2, s3
		}
		for ; l < k; l++ {
			s := w[bj+l]
			for i, r := range rows {
				s -= vals[i] * w[r*k+l]
			}
			w[bj+l] = s
		}
	}
}

// forwardLanes applies one forward-sweep column (entries rows/vals,
// pivots at w[bj+l]) to lanes [lo, hi) one lane at a time, skipping a
// lane whose pivot is zero exactly as solveScratch does.
func forwardLanes(w []float64, rows []int, vals []float64, k, bj, lo, hi int) {
	vals = vals[:len(rows)]
	for l := lo; l < hi; l++ {
		x := w[bj+l]
		if x == 0 {
			continue
		}
		for i, r := range rows {
			w[r*k+l] -= vals[i] * x
		}
	}
}

// solveScratch performs the permuted forward/diagonal/backward solve,
// reading b (original ordering) and leaving the permuted solution in w.
func (f *Cholesky) solveScratch(w, b []float64) {
	n := f.n
	for k, old := range f.perm {
		w[k] = b[old]
	}
	// L w = b' (unit lower triangular, CSC forward sweep).
	for j := 0; j < n; j++ {
		wj := w[j]
		if wj == 0 {
			continue
		}
		for p := f.colPtr[j]; p < f.colPtr[j+1]; p++ {
			w[f.rowIdx[p]] -= f.val[p] * wj
		}
	}
	for j := 0; j < n; j++ {
		w[j] /= f.d[j]
	}
	// Lᵀ w = w (CSC backward sweep).
	for j := n - 1; j >= 0; j-- {
		s := w[j]
		for p := f.colPtr[j]; p < f.colPtr[j+1]; p++ {
			s -= f.val[p] * w[f.rowIdx[p]]
		}
		w[j] = s
	}
}

// RCM computes a reverse Cuthill-McKee ordering of the symmetric matrix
// s, returning perm with perm[new] = old. RCM clusters each row's
// neighbours, which keeps LDLᵀ fill low on the banded-ish conductance
// graphs of block and grid thermal networks.
func RCM(s *Sparse) []int {
	n := s.N
	deg := make([]int, n)
	for i := 0; i < n; i++ {
		for k := s.RowPtr[i]; k < s.RowPtr[i+1]; k++ {
			if s.Col[k] != i {
				deg[i]++
			}
		}
	}
	perm := make([]int, 0, n)
	visited := make([]bool, n)
	queue := make([]int, 0, n)
	nbrs := make([]int, 0, 16)
	for {
		// Start the next component from an unvisited vertex of minimum
		// degree (a cheap stand-in for a pseudo-peripheral vertex).
		start := -1
		for i := 0; i < n; i++ {
			if !visited[i] && (start == -1 || deg[i] < deg[start]) {
				start = i
			}
		}
		if start == -1 {
			break
		}
		visited[start] = true
		queue = append(queue[:0], start)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			perm = append(perm, v)
			nbrs = nbrs[:0]
			for k := s.RowPtr[v]; k < s.RowPtr[v+1]; k++ {
				if w := s.Col[k]; w != v && !visited[w] {
					visited[w] = true
					nbrs = append(nbrs, w)
				}
			}
			// Enqueue neighbours by increasing degree (insertion sort —
			// the lists are tiny).
			for i := 1; i < len(nbrs); i++ {
				for j := i; j > 0 && deg[nbrs[j]] < deg[nbrs[j-1]]; j-- {
					nbrs[j], nbrs[j-1] = nbrs[j-1], nbrs[j]
				}
			}
			queue = append(queue, nbrs...)
		}
	}
	for i, j := 0, len(perm)-1; i < j; i, j = i+1, j-1 {
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}
