package metrics

import (
	"fmt"
	"math"
	"sort"
)

// CycleMeter measures temporal thermal cycles per Section V-D: per-core
// ΔT (max - min) over a sliding window, averaged over all cores; the
// metric is the percentage of samples where that average exceeds the
// threshold (20 °C in Figure 6 — the JEDEC data in [13] shows failures
// become 16x more frequent when ΔT grows from 10 to 20 °C).
//
// The window extrema come from per-core monotonic deques, so Record
// costs amortized O(1) per core per tick instead of rescanning the
// whole window — this meter runs inside the simulator's per-tick hot
// loop, where the O(cores × window) scan used to dominate sweep cost.
// The reported extrema are the exact window min/max, so every derived
// metric is bit-identical to the scanning implementation's.
type CycleMeter struct {
	DeltaThresholdC float64
	WindowTicks     int

	cores int
	tick  int // samples recorded so far

	maxT []wedge // per-core window maxima candidates
	minT []wedge // per-core window minima candidates

	samples int
	above   int
	sumAvg  float64
}

// wedge is a fixed-capacity monotonic deque over (sample index, value)
// pairs: values decay monotonically from front to back, the front is
// the window extremum, and entries expire from the front once they
// leave the window. Capacity equals the window length, which bounds the
// live entries, so pushes never allocate.
type wedge struct {
	val  []float64
	idx  []int
	head int // ring position of the front entry
	size int
}

// push expires entries outside the window ending at sample s, drops
// dominated entries from the back, and appends (s, t). keepMax selects
// the max-deque order (back values <= t are dominated); otherwise the
// min-deque order.
func (w *wedge) push(s, window int, t float64, keepMax bool) {
	cap := len(w.val)
	for w.size > 0 && w.idx[w.head] <= s-window {
		w.head++
		if w.head == cap {
			w.head = 0
		}
		w.size--
	}
	for w.size > 0 {
		back := w.head + w.size - 1
		if back >= cap {
			back -= cap
		}
		if v := w.val[back]; (keepMax && v <= t) || (!keepMax && v >= t) {
			w.size--
		} else {
			break
		}
	}
	pos := w.head + w.size
	if pos >= cap {
		pos -= cap
	}
	w.val[pos] = t
	w.idx[pos] = s
	w.size++
}

// front returns the current window extremum.
func (w *wedge) front() float64 { return w.val[w.head] }

// copyFrom copies src's entries, front position and length into the
// receiver's buffers, which have src's capacity.
func (w *wedge) copyFrom(src *wedge) {
	copy(w.val, src.val)
	copy(w.idx, src.idx)
	w.head, w.size = src.head, src.size
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
		maxT:            make([]wedge, numCores),
		minT:            make([]wedge, numCores),
	}
	for c := 0; c < numCores; c++ {
		m.maxT[c] = wedge{val: make([]float64, windowTicks), idx: make([]int, windowTicks)}
		m.minT[c] = wedge{val: make([]float64, windowTicks), idx: make([]int, windowTicks)}
	}
	return m, nil
}

// Record adds one sample of per-core temperatures.
func (m *CycleMeter) Record(coreTempsC []float64) error {
	if len(coreTempsC) != m.cores {
		return fmt.Errorf("metrics: cycle meter got %d temps for %d cores", len(coreTempsC), m.cores)
	}
	m.tick++
	w := m.WindowTicks
	for c, t := range coreTempsC {
		m.maxT[c].push(m.tick, w, t, true)
		m.minT[c].push(m.tick, w, t, false)
	}
	if m.tick <= w {
		return nil // wait for a full window before judging cycles
	}
	avg := 0.0
	for c := 0; c < m.cores; c++ {
		avg += m.maxT[c].front() - m.minT[c].front()
	}
	avg /= float64(m.cores)
	m.samples++
	m.sumAvg += avg
	if avg > m.DeltaThresholdC {
		m.above++
	}
	return nil
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

// Rainflow implements the standard 4-point rainflow counting algorithm
// over a temperature history, producing full/half cycle amplitudes. It
// extends the paper's sliding-window metric with the cycle census that
// Coffin-Manson-style reliability models consume.
type Rainflow struct {
	turning []float64
	last    float64
	dir     int // -1 falling, +1 rising, 0 unknown
	full    []float64
	started bool
}

// NewRainflow returns an empty counter.
func NewRainflow() *Rainflow { return &Rainflow{} }

// Push adds one temperature sample.
func (r *Rainflow) Push(t float64) {
	if !r.started {
		r.turning = append(r.turning, t)
		r.last = t
		r.started = true
		return
	}
	switch {
	case t > r.last:
		if r.dir < 0 {
			r.turning = append(r.turning, r.last)
		}
		r.dir = 1
	case t < r.last:
		if r.dir > 0 {
			r.turning = append(r.turning, r.last)
		}
		r.dir = -1
	}
	r.last = t
	r.collapse()
}

// collapse applies the 4-point rule over the committed turning points
// plus the in-progress extremum: whenever the inner range of the last
// four points is contained by both neighbours, a full cycle of the inner
// amplitude is extracted and its two points removed.
func (r *Rainflow) collapse() {
	for len(r.turning) >= 3 {
		n := len(r.turning)
		x1, x2, x3 := r.turning[n-3], r.turning[n-2], r.turning[n-1]
		x4 := r.last
		inner := math.Abs(x3 - x2)
		if inner <= math.Abs(x2-x1) && inner <= math.Abs(x4-x3) {
			r.full = append(r.full, inner)
			r.turning = r.turning[:n-2]
		} else {
			return
		}
	}
}

// FullCycles returns the amplitudes of closed cycles counted so far.
func (r *Rainflow) FullCycles() []float64 { return append([]float64(nil), r.full...) }

// ResidualHalfCycles returns the amplitudes of the unclosed residue
// (treated as half cycles by convention).
func (r *Rainflow) ResidualHalfCycles() []float64 {
	pts := append([]float64(nil), r.turning...)
	if r.started {
		pts = append(pts, r.last)
	}
	var out []float64
	for i := 1; i < len(pts); i++ {
		if d := math.Abs(pts[i] - pts[i-1]); d > 0 {
			out = append(out, d)
		}
	}
	return out
}

// CountAbove returns the number of full cycles with amplitude above the
// threshold.
func (r *Rainflow) CountAbove(thresholdC float64) int {
	n := 0
	for _, a := range r.full {
		if a > thresholdC {
			n++
		}
	}
	return n
}

// Histogram bins the full-cycle amplitudes using the given bin edges
// (ascending); result[i] counts amplitudes in [edges[i], edges[i+1]), and
// the last bucket is open-ended.
func (r *Rainflow) Histogram(edges []float64) []int {
	out := make([]int, len(edges))
	for _, a := range r.full {
		i := sort.SearchFloat64s(edges, a)
		if i > 0 {
			i--
		}
		out[i]++
	}
	return out
}
