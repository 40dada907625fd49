package reliability

import (
	"math"
	"sort"
	"testing"
)

// Rainflow implements the standard 4-point rainflow counting algorithm
// over a temperature history, producing full/half cycle amplitudes. It
// is the batch form of Stream: it stores the whole census, and the
// tests hold Stream's damage and cycle count to CyclingModel.Damage
// over it.
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

func TestRainflowSimpleCycle(t *testing.T) {
	r := NewRainflow()
	// Classic sequence: a small inner cycle (80->60->80 is amplitude 20
	// inner to the larger 50->90 ramp).
	for _, v := range []float64{50, 90, 60, 80, 40} {
		r.Push(v)
	}
	full := r.FullCycles()
	if len(full) != 1 || math.Abs(full[0]-20) > 1e-9 {
		t.Errorf("full cycles = %v, want one cycle of amplitude 20", full)
	}
	if r.CountAbove(15) != 1 || r.CountAbove(25) != 0 {
		t.Error("CountAbove wrong")
	}
	if len(r.ResidualHalfCycles()) == 0 {
		t.Error("expected residual half cycles from the outer ramp")
	}
}

func TestRainflowMonotoneSeriesHasNoFullCycles(t *testing.T) {
	r := NewRainflow()
	for i := 0; i < 50; i++ {
		r.Push(float64(i))
	}
	if len(r.FullCycles()) != 0 {
		t.Error("monotone series produced full cycles")
	}
}

func TestRainflowHistogram(t *testing.T) {
	r := NewRainflow()
	for i := 0; i < 10; i++ {
		r.Push(50)
		r.Push(75) // repeated 25-degree swings close cycles
	}
	edges := []float64{0, 10, 20, 30}
	h := r.Histogram(edges)
	total := 0
	for _, n := range h {
		total += n
	}
	if total != len(r.FullCycles()) {
		t.Errorf("histogram total %d != full cycles %d", total, len(r.FullCycles()))
	}
	if h[2] != total {
		t.Errorf("all 25-degree cycles should land in bin [20,30), got %v", h)
	}
}
