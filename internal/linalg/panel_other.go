//go:build !amd64

package linalg

// panelAVX is always false off amd64: SolvePanel runs its Go kernels,
// and the AVX kernel stubs below are never called.
var panelAVX = false

func forward8AVX(w []float64, rows []int, vals []float64, k, bj int)  { panic(noAVX) }
func forward4AVX(w []float64, rows []int, vals []float64, k, bj int)  { panic(noAVX) }
func backward8AVX(w []float64, rows []int, vals []float64, k, bj int) { panic(noAVX) }
func backward4AVX(w []float64, rows []int, vals []float64, k, bj int) { panic(noAVX) }
func divideAVX(w, d []float64, k int)                                 { panic(noAVX) }

const noAVX = "linalg: AVX panel kernel called off amd64"
