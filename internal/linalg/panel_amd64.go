package linalg

// panelAVX selects the AVX kernels for SolvePanel's lane blocks. It is
// chosen once, here, from what the CPU and the operating system
// support; tests flip it to run the Go kernels on the same host.
var panelAVX = cpuHasAVX()

// cpuHasAVX reports whether the CPU has AVX (CPUID leaf 1, ECX bit 28)
// and the operating system saves the YMM registers on a context switch
// (OSXSAVE, ECX bit 27, and XCR0 bits 1 and 2: SSE and AVX state).
func cpuHasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx := cpuid1ECX(); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	return xcr0()&6 == 6
}

// cpuid1ECX returns ECX of CPUID leaf 1, which every amd64 CPU has.
func cpuid1ECX() uint32

// xcr0 returns the low half of the extended control register XCR0
// (XGETBV with ECX = 0); it must only run when CPUID reports OSXSAVE.
func xcr0() uint32

// The kernels below are the branch-free inner loops of
// solvePanelScratch, four or eight lanes per instruction with no FMA:
// each lane gets one multiply, then one subtract (or one divide) whose
// first operand is the target or accumulator, exactly as the Go loops
// do, so every lane keeps its bits. They check no bounds. Their callers
// pass w = panel[l:] for a lane block starting at lane l of a
// lane-interleaved n×k panel (len(panel) == n*k, l+width <= k) and
// j*k for a column j < n, and every row index a factor stores is < n
// by factorCholesky's construction, so every access stays inside the
// panel.

// forward8AVX subtracts vals[i]·x from w[rows[i]*k : +8] for every i,
// in entry order, where x = w[bj : bj+8] (a block's forward pivots,
// none of them zero).
//
//go:noescape
func forward8AVX(w []float64, rows []int, vals []float64, k, bj int)

// forward4AVX is forward8AVX for a 4-lane block.
//
//go:noescape
func forward4AVX(w []float64, rows []int, vals []float64, k, bj int)

// backward8AVX subtracts vals[i]·w[rows[i]*k : +8] from the accumulators
// s = w[bj : bj+8] for every i, in entry order, and stores s once.
//
//go:noescape
func backward8AVX(w []float64, rows []int, vals []float64, k, bj int)

// backward4AVX is backward8AVX for a 4-lane block.
//
//go:noescape
func backward4AVX(w []float64, rows []int, vals []float64, k, bj int)

// divideAVX divides the k lanes of every row j < len(d) of the
// lane-interleaved panel w by d[j] (len(w) == len(d)*k).
//
//go:noescape
func divideAVX(w, d []float64, k int)
