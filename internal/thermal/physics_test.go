package thermal

import (
	"math"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/linalg"
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
// column is the local resistance the TIM1 comment in DefaultParams
// says it is.
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

// TestTransientEnergyBalance is a physics oracle for the implicit-Euler
// integrator. Summing (C/dt)(T₍ₖ₊₁₎ − Tₖ) = P − G·T₍ₖ₊₁₎ over the nodes
// cancels every internal conductance, which carries as much heat out
// of one node as into its neighbour, and leaves the grounding terms:
// the heat stored in one step equals dt times the injected power less
// the heat flowing to ambient at the step's end. Implicit Euler makes
// that balance exact up to round-off, so the bound holds it to 1e-10 of
// the step's injected energy. From ambient, 200 steps of 0.1 s with a
// power step at step 100, on every solverModels model and a 16×16 EXP-4
// grid.
func TestTransientEnergyBalance(t *testing.T) {
	const dt = 0.1
	models := solverModels(t)
	grid, err := NewGridModel(floorplan.MustBuild(floorplan.EXP4), DefaultParams(), 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	models["grid16x16/EXP-4"] = grid
	for name, m := range models {
		t.Run(name, func(t *testing.T) {
			tr, err := m.NewTransient(dt, nil)
			if err != nil {
				t.Fatal(err)
			}
			p := randomPower(m, 7)
			prev := tr.Temps()
			next := make([]float64, m.NumNodes)
			for step := 0; step < 200; step++ {
				if step == 100 {
					for i := range p {
						p[i] *= 0.3
					}
				}
				if err := tr.StepInto(next, p); err != nil {
					t.Fatal(err)
				}
				injected := 0.0
				for _, w := range p {
					injected += w
				}
				stored := 0.0
				for i, c := range m.C {
					stored += c * (next[i] - prev[i])
				}
				want := dt * (injected - m.AmbientHeatFlow(next))
				if d := math.Abs(stored - want); d > 1e-10*dt*injected {
					t.Fatalf("step %d: stored %.15g J, dt·(P − Q_amb) %.15g J (|Δ|=%.3e)", step, stored, want, d)
				}
				prev, next = next, prev
			}
		})
	}
}

// rcModel hand-builds a one-node RC network: heat capacitance c (J/K)
// on its node, one conductance g (W/K) from that node to ambient, and
// one block whose power lands wholly on the node.
func rcModel(c, g float64) *Model {
	b := linalg.NewSparseBuilder(1)
	b.StampGroundConductance(0, g)
	return &Model{
		Params:       DefaultParams(),
		NumNodes:     1,
		G:            b.Build(),
		C:            []float64{c},
		GroundG:      []float64{g},
		powerEntries: []powerEntry{{node: 0, block: 0, frac: 1}},
		numBlocks:    1,
	}
}

// TestTransientRCOracle is a ground-truth oracle for the integrator. On
// one RC node under constant power P from ambient, implicit Euler is
// the recurrence r₍ₖ₊₁₎ = (C/dt·rₖ + P)/(C/dt + G) for the rise above
// ambient, whose closed form is rₖ = (P/G)(1 − ρᵏ) with
// ρ = (C/dt)/(C/dt + G). Each step's rise must match the recurrence to
// 1e-14 relative and the closed form to 1e-12, the returned temperature
// must be that rise plus ambient, and the rise must climb to P/G. Two
// time steps on one model exercise the per-dt factorization memo: each
// dt gets its own factorization, and a second integrator at a dt
// already seen reuses it.
func TestTransientRCOracle(t *testing.T) {
	const c, g, p = 0.5, 0.2, 3.0 // J/K, W/K, W: τ = C/G = 2.5 s, P/G = 15 K
	m := rcModel(c, g)
	ambient := m.Params.AmbientC
	power := []float64{p}
	rel := func(got, want float64) float64 { return math.Abs(got-want) / math.Abs(want) }
	var factors []*linalg.Cholesky
	for _, dt := range []float64{0.1, 0.37} {
		tr, err := m.NewTransient(dt, nil)
		if err != nil {
			t.Fatal(err)
		}
		again, err := m.NewTransient(dt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if again.chol != tr.chol {
			t.Errorf("dt %g: a second integrator refactored instead of reusing the memoized factorization", dt)
		}
		factors = append(factors, tr.chol)
		a := c / dt
		rho := a / (a + g)
		out := make([]float64, 1)
		r, prev := 0.0, 0.0
		for k := 1; k <= 1000; k++ {
			if err := tr.StepInto(out, power); err != nil {
				t.Fatal(err)
			}
			rise := tr.rise[0]
			if out[0] != rise+ambient {
				t.Fatalf("dt %g step %d: StepInto wrote %.17g °C, want rise %.17g + ambient", dt, k, out[0], rise)
			}
			if rise < prev {
				t.Fatalf("dt %g step %d: rise fell from %.17g to %.17g K under constant power", dt, k, prev, rise)
			}
			prev = rise
			r = (a*r + p) / (a + g)
			if e := rel(rise, r); e > 1e-14 {
				t.Fatalf("dt %g step %d: rise %.17g K, recurrence %.17g K (rel %.2e)", dt, k, rise, r, e)
			}
			if closed := p / g * (1 - math.Pow(rho, float64(k))); rel(rise, closed) > 1e-12 {
				t.Fatalf("dt %g step %d: rise %.17g K, closed form %.17g K (rel %.2e)", dt, k, rise, closed, rel(rise, closed))
			}
		}
		if e := rel(prev, p/g); e > 1e-12 {
			t.Errorf("dt %g: rise after 1000 steps %.17g K, want P/G = %g K (rel %.2e)", dt, prev, p/g, e)
		}
	}
	if factors[0] == factors[1] {
		t.Error("two time steps share one factorization")
	}
}
