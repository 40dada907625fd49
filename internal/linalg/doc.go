// Package linalg implements the linear algebra kernels needed by the
// thermal RC-network solvers. It is the bottom of the stack: it knows
// nothing about floorplans or temperatures, only CSR matrices —
// internal/thermal is its sole in-repo consumer.
//
// One factorization serves every solve: a sparse LDLᵀ (Cholesky)
// factorization of the CSR conductance matrix with a fill-reducing
// ordering — reverse Cuthill-McKee for small block-mode systems,
// minimum degree for grid-mode systems whose package "hub" nodes would
// otherwise cause catastrophic fill. Both orderings are deterministic,
// so a factorization is bitwise reproducible across processes. RC
// conductance systems are symmetric positive definite, and factoring
// once then back-solving per step costs O(nnz(L)) per step. There is
// no second solver to compare it with: the tests hold every solve to
// its own componentwise backward error and to manufactured solutions
// (x chosen, b = S·x formed with MulVec, x recovered), and thermal's
// tests add an exact 1-D multilayer slab.
//
// # Panel (multi-RHS) solves
//
// Cholesky.SolvePanel solves k right-hand sides through one blocked
// traversal of the triangular factors: the column-major n×k panel is
// gathered into a lane-interleaved working layout so the forward,
// diagonal, and backward sweeps walk L's columns once for all k lanes.
// Within a column, both triangular sweeps take the lanes in register
// blocks of 8, then 4, then one: a block's forward pivots, or its
// backward accumulators, live in local variables for the whole column,
// and the backward block is stored once at the column's end. The
// forward sweep tests a block's pivots for zero once; with none zero
// its update is branch-free, otherwise the block's lanes take the
// scalar solve's per-lane zero skip, which keeps the sign of -0
// targets that x -= v*0 would flip. Blocking only interleaves lanes:
// within a lane every multiply and subtract happens on the same
// operands in the same column and entry order, so the floating-point
// operation sequence is exactly SolveBuffered's and panel results are
// bitwise identical to k scalar solves — the contract the batched
// transient stepping in internal/thermal builds on.
//
// On amd64 the 8- and 4-lane blocks' loops over a column's entries,
// and the diagonal scaling, run as AVX kernels (panel_amd64.s): a
// broadcast factor value, VMULPD, then VSUBPD (or VDIVPD for the
// diagonal) on four lanes per YMM register, with the target or
// accumulator as the first source operand, so a lane's NaN wins as it
// does in the scalar SUBSD and DIVSD. They use no FMA: Go does not
// fuse y -= v*x on amd64, and a fused multiply-subtract rounds once
// where Go rounds twice, which would change the bits. The column loop,
// the lane blocking, the zero-pivot rule and the single-lane tails
// stay in Go, as does SolvePanel's k == 1 path through SolveBuffered.
// The kernels are chosen once at package initialization, from CPUID
// (the AVX and OSXSAVE bits of leaf 1) and XGETBV (the OS saves the
// SSE and AVX state: XCR0 & 6 == 6). On other GOARCHes, and on CPUs
// without AVX, the Go kernels run. The tests run every panel case
// through both kernels and hold each to SolveBuffered bit for bit.
//
// # Buffer ownership and concurrency
//
// The package is deliberately small and allocation-conscious: thermal
// simulation factors one matrix per network and then performs millions
// of solve/mat-vec operations, so the hot paths (SolveBuffered and
// SolvePanel) write into caller-owned slices and allocate nothing. A
// completed factorization is immutable and safe to share across
// goroutines (every run of a shared thermal model does exactly that);
// factoring itself is not synchronized. SolvePanel's dst and rhs may
// alias each other; the scratch buffer (length n·k) is caller-owned
// and clobbered, never retained.
package linalg
