package metrics

import (
	"fmt"
	"math"
)

// CycleMeter measures temporal thermal cycles per Section V-D: per-core
// ΔT (max - min) over a sliding window, averaged over all cores; the
// metric is the percentage of samples where that average exceeds the
// threshold (20 °C in Figure 6 — the JEDEC data in [13] shows failures
// become 16x more frequent when ΔT grows from 10 to 20 °C).
//
// The window extrema come from van Herk/Gil–Werman blocks (M. van
// Herk, Pattern Recognition Letters 13(7), 1992; J. Gil and M. Werman,
// IEEE TPAMI 15(5), 1993). Samples are cut into blocks of W =
// WindowTicks; sample s (1-based) sits at position j = (s−1) mod W of
// its block, and its window holds positions j+1…W−1 of the previous
// block and 0…j of the current one. So the window max is the max of
// the previous block's suffix max from j+1 and the current block's
// running prefix max, and the min likewise. Record does the same few
// builtin min/max operations for every core and tick, with no
// data-dependent branch, over one contiguous run of state per array;
// every W-th sample one backward pass turns the finished block into
// the suffix extrema. This meter runs inside the simulator's per-tick
// hot loop.
//
// Memory: 2(W+1)+2 float64s per core, about 13 KB for 8 cores at W =
// 100.
//
// For inputs without a NaN, each window extremum is the max or min of
// the same set of values a rescan of the window takes (a tie between
// −0 and +0 cannot change a ΔT), so Pct and MeanDeltaC are
// bit-identical to a rescan's and to the monotonic-deque meter kept in
// oracle_test.go. A NaN core temperature is carried, as builtin min
// and max carry it, through every judged window that holds it: that
// window's ΔT is NaN, which counts as a sample but never as above the
// threshold, and MeanDeltaC is NaN from then on, as AvgCoreTempC is.
type CycleMeter struct {
	DeltaThresholdC float64
	WindowTicks     int

	cores int
	tick  int // samples recorded so far

	// State is position-major: entry (j, c) sits at j*cores + c, and
	// row W is a constant sentinel (−Inf in hi, +Inf in lo), the empty
	// suffix. Row j < W of hi holds the current block's raw sample
	// while j is at or before the latest position, and the previous
	// block's suffix max beyond it; lo holds the previous block's
	// suffix min. preHi and preLo are the current block's running
	// extrema per core, reset to the sentinels when a block closes.
	hi, lo       []float64
	preHi, preLo []float64

	samples int
	above   int
	sumAvg  float64
}

// NewCycleMeter builds a meter with the given sliding window length in
// sampling ticks.
func NewCycleMeter(numCores, windowTicks int, deltaThresholdC float64) (*CycleMeter, error) {
	if numCores <= 0 || windowTicks <= 1 {
		return nil, fmt.Errorf("metrics: cycle meter needs cores and window > 1, got %d cores window %d", numCores, windowTicks)
	}
	m := &CycleMeter{
		DeltaThresholdC: deltaThresholdC,
		WindowTicks:     windowTicks,
		cores:           numCores,
		hi:              make([]float64, (windowTicks+1)*numCores),
		lo:              make([]float64, (windowTicks+1)*numCores),
		preHi:           make([]float64, numCores),
		preLo:           make([]float64, numCores),
	}
	fillSentinels(m.hi, m.lo)
	fillSentinels(m.preHi, m.preLo)
	return m, nil
}

// fillSentinels sets every entry of hi to −Inf and of lo to +Inf, the
// identities of max and min.
func fillSentinels(hi, lo []float64) {
	lo = lo[:len(hi)]
	for i := range hi {
		hi[i] = math.Inf(-1)
		lo[i] = math.Inf(1)
	}
}

// Record adds one sample of per-core temperatures.
func (m *CycleMeter) Record(coreTempsC []float64) error {
	n := m.cores
	if len(coreTempsC) != n {
		return fmt.Errorf("metrics: cycle meter got %d temps for %d cores", len(coreTempsC), n)
	}
	w := m.WindowTicks
	j := m.tick % w
	m.tick++
	row := j * n
	raw := m.hi[row:][:n]
	sufHi, sufLo := m.hi[row+n:][:n], m.lo[row+n:][:n]
	preHi, preLo := m.preHi[:n], m.preLo[:n]
	avg := 0.0
	for c, t := range coreTempsC {
		raw[c] = t
		hi, lo := max(preHi[c], t), min(preLo[c], t)
		preHi[c], preLo[c] = hi, lo
		avg += max(sufHi[c], hi) - min(sufLo[c], lo)
	}
	if j == w-1 {
		m.closeBlock()
	}
	if m.tick <= w {
		return nil // wait for a full window before judging cycles
	}
	avg /= float64(n)
	m.samples++
	m.sumAvg += avg
	if avg > m.DeltaThresholdC {
		m.above++
	}
	return nil
}

// closeBlock turns the finished block's raw samples in hi into its
// suffix maxima (in place) and minima (into lo), walking back from the
// sentinel row, and restarts the running prefix extrema.
func (m *CycleMeter) closeBlock() {
	n := m.cores
	for row := (m.WindowTicks - 1) * n; row >= 0; row -= n {
		hi, nextHi := m.hi[row:][:n], m.hi[row+n:][:n]
		lo, nextLo := m.lo[row:][:n], m.lo[row+n:][:n]
		for c, t := range hi {
			hi[c] = max(t, nextHi[c])
			lo[c] = min(t, nextLo[c])
		}
	}
	fillSentinels(m.preHi, m.preLo)
}

// Pct returns the percentage of full-window samples whose core-averaged
// ΔT exceeds the threshold.
func (m *CycleMeter) Pct() float64 {
	if m.samples == 0 {
		return 0
	}
	return 100 * float64(m.above) / float64(m.samples)
}

// MeanDeltaC returns the time-average of the core-averaged window ΔT.
func (m *CycleMeter) MeanDeltaC() float64 {
	if m.samples == 0 {
		return 0
	}
	return m.sumAvg / float64(m.samples)
}
