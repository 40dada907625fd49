package thermal

import (
	"math"
	"testing"

	"repro/internal/floorplan"
)

// TestLocalColumnDominatesSpike verifies the calibration property the
// policy experiments rely on: concentrating power on one core produces a
// markedly hotter spot than spreading the same total power evenly.
func TestLocalColumnDominatesSpike(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP1)
	m, err := NewBlockModel(s, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	total := 12.0
	// Spread: every core carries total/8.
	spread := make([]float64, s.NumBlocks())
	for _, c := range s.Cores() {
		spread[s.BlockIndex(c)] = total / 8
	}
	// Concentrated: one core carries everything.
	conc := make([]float64, s.NumBlocks())
	conc[s.BlockIndex(s.Core(0))] = total

	ts, _ := m.SteadyState(spread)
	tc, _ := m.SteadyState(conc)
	maxSpread, maxConc := 0.0, 0.0
	for _, v := range m.CoreTemps(ts) {
		maxSpread = math.Max(maxSpread, v)
	}
	for _, v := range m.CoreTemps(tc) {
		maxConc = math.Max(maxConc, v)
	}
	if maxConc < maxSpread+5 {
		t.Errorf("concentration should cost several degrees: spread peak %.2f, concentrated peak %.2f",
			maxSpread, maxConc)
	}
}

// TestTIMDominatesLocalResistance checks that removing the die-level TIM
// (making it nearly perfect) collapses the per-core spike — i.e. the TIM
// column is the local resistance DESIGN.md §6 claims it is.
func TestTIMDominatesLocalResistance(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP2)
	base := DefaultParams()
	perfect := base
	perfect.TIMResistivity = 1e-4 // effectively no TIM

	spike := func(p Params) float64 {
		m, err := NewBlockModel(s, p)
		if err != nil {
			t.Fatal(err)
		}
		pw := make([]float64, s.NumBlocks())
		pw[s.BlockIndex(s.Core(0))] = 5
		temps, _ := m.SteadyState(pw)
		core := m.CoreTemps(temps)
		// Spike relative to the coolest core.
		lo := math.Inf(1)
		for _, v := range core {
			lo = math.Min(lo, v)
		}
		return core[0] - lo
	}
	withTIM := spike(base)
	withoutTIM := spike(perfect)
	if withoutTIM >= withTIM*0.75 {
		t.Errorf("removing the TIM should collapse the local spike: %.2f °C -> %.2f °C", withTIM, withoutTIM)
	}
}

// TestGridReadbackIsAreaWeighted verifies the grid model's block
// temperature extraction averages cells by area fraction.
func TestGridReadbackIsAreaWeighted(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP1)
	m, err := NewGridModel(s, DefaultParams(), 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	// With zero power everything reads ambient exactly, regardless of
	// the weighting.
	temps, err := m.SteadyState(make([]float64, s.NumBlocks()))
	if err != nil {
		t.Fatal(err)
	}
	for bi, v := range m.BlockTemps(temps) {
		if math.Abs(v-m.Params.AmbientC) > 1e-6 {
			t.Fatalf("block %d reads %.4f at zero power", bi, v)
		}
	}
	// Under power, every block readback lies within the cell range.
	pw := make([]float64, s.NumBlocks())
	for _, c := range s.Cores() {
		pw[s.BlockIndex(c)] = 3
	}
	temps, _ = m.SteadyState(pw)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range temps {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	for bi, v := range m.BlockTemps(temps) {
		if v < lo-1e-9 || v > hi+1e-9 {
			t.Errorf("block %d readback %.3f outside node range [%.3f, %.3f]", bi, v, lo, hi)
		}
	}
}

// TestReciprocity: for a linear resistive network, the temperature rise
// at block j due to power at block i equals the rise at i due to the
// same power at j (symmetric conductance matrix).
func TestReciprocity(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP1)
	m, _ := NewBlockModel(s, DefaultParams())
	i := s.BlockIndex(s.Core(0))
	j := s.BlockIndex(s.Core(7))
	amb := m.Params.AmbientC

	pi := make([]float64, s.NumBlocks())
	pi[i] = 5
	ti, _ := m.SteadyState(pi)
	riseAtJ := m.BlockTemps(ti)[j] - amb

	pj := make([]float64, s.NumBlocks())
	pj[j] = 5
	tj, _ := m.SteadyState(pj)
	riseAtI := m.BlockTemps(tj)[i] - amb

	if math.Abs(riseAtJ-riseAtI) > 1e-8 {
		t.Errorf("reciprocity violated: %.9f vs %.9f", riseAtJ, riseAtI)
	}
}

func TestTransientDtAccessor(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP1)
	m, _ := NewBlockModel(s, DefaultParams())
	tr, err := m.NewTransient(0.25, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Dt() != 0.25 {
		t.Errorf("Dt = %g", tr.Dt())
	}
}

// TestStepRK4Validation covers the explicit integrator's error paths.
func TestStepRK4Validation(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP1)
	m, _ := NewBlockModel(s, DefaultParams())
	if _, err := m.StepRK4([]float64{1}, make([]float64, s.NumBlocks()), 0.1); err == nil {
		t.Error("short temperature vector accepted")
	}
	if _, err := m.StepRK4(uniformTemps(m, 45), []float64{1}, 0.1); err == nil {
		t.Error("short power vector accepted")
	}
}
