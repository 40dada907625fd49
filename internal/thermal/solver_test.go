package thermal

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/linalg"
)

// solverModels enumerates every builtin block model (EXP-1..EXP-6,
// the full coverage roster) plus grid models — all the systems the
// paper's and the extended sweeps solve.
func solverModels(t *testing.T) map[string]*Model {
	t.Helper()
	out := make(map[string]*Model)
	for _, e := range floorplan.ExtendedExperiments() {
		s := floorplan.MustBuild(e)
		m, err := NewBlockModel(s, DefaultParams())
		if err != nil {
			t.Fatalf("block model %v: %v", e, err)
		}
		out["block/"+e.String()] = m
	}
	for _, e := range []floorplan.Experiment{floorplan.EXP1, floorplan.EXP4} {
		s := floorplan.MustBuild(e)
		m, err := NewGridModel(s, DefaultParams(), 8, 8)
		if err != nil {
			t.Fatalf("grid model %v: %v", e, err)
		}
		out["grid8x8/"+e.String()] = m
	}
	return out
}

// randomPower returns a seeded power vector with cores dissipating a few
// watts and everything else a small floor.
func randomPower(m *Model, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	p := make([]float64, m.NumBlocks())
	for i := range p {
		p[i] = 0.1 + 4*rng.Float64()
	}
	return p
}

// backwardError returns the componentwise relative backward error of x
// as a solution of S·x = b: maxᵢ |S·x − b|ᵢ / (|S|·|x| + |b|)ᵢ, the
// smallest relative change to S's entries and b's under which x is
// exact. A backward-stable solve keeps it at a few units of roundoff
// however ill-conditioned the system, so it needs no second solver to
// compare against.
func backwardError(s *linalg.Sparse, x, b []float64) float64 {
	worst := 0.0
	for i := 0; i < s.N; i++ {
		r, scale := -b[i], math.Abs(b[i])
		for k := s.RowPtr[i]; k < s.RowPtr[i+1]; k++ {
			r += s.Val[k] * x[s.Col[k]]
			scale += math.Abs(s.Val[k] * x[s.Col[k]])
		}
		switch {
		case r == 0:
		case scale == 0:
			return math.Inf(1)
		default:
			worst = max(worst, math.Abs(r)/scale)
		}
	}
	return worst
}

// transientMatrix returns C/dt + G, the implicit-Euler system matrix,
// and its C/dt diagonal.
func transientMatrix(m *Model, dt float64) (*linalg.Sparse, []float64) {
	cdt := make([]float64, m.NumNodes)
	for i, c := range m.C {
		cdt[i] = c / dt
	}
	return m.G.AddDiag(cdt), cdt
}

// TestSteadyStateSolvesItsSystem holds the production steady-state
// path, memoized and private, to its own system on every experiment's
// block model and on grid models: the rise T − T_amb must solve
// G·(T − T_amb) = ExpandPower(p) with a componentwise backward error of
// at most 1e-14 (worst measured 9.0e-16). A manufactured solution on
// each model's G and on C/dt + G (dt = 0.1 s), factored by
// linalg.FactorCholesky, must come back within 1e-12 relative at every
// node (worst measured 8.1e-14).
func TestSteadyStateSolvesItsSystem(t *testing.T) {
	for name, m := range solverModels(t) {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				p := randomPower(m, seed)
				pn, err := m.ExpandPower(p)
				if err != nil {
					t.Fatal(err)
				}
				for _, kind := range []SolverKind{SolverCached, SolverSparse} {
					temps, err := m.SteadyStateWith(p, kind)
					if err != nil {
						t.Fatalf("%v: %v", kind, err)
					}
					for i := range temps {
						temps[i] -= m.Params.AmbientC
					}
					if be := backwardError(m.G, temps, pn); be > 1e-14 {
						t.Errorf("%v seed %d: componentwise backward error %.2e, want <= 1e-14", kind, seed, be)
					}
				}
			}
			a, _ := transientMatrix(m, 0.1)
			for _, sys := range []struct {
				name string
				s    *linalg.Sparse
			}{{"G", m.G}, {"C/dt+G", a}} {
				f, err := linalg.FactorCholesky(sys.s)
				if err != nil {
					t.Fatalf("%s: %v", sys.name, err)
				}
				rng := rand.New(rand.NewSource(int64(sys.s.N)))
				want := make([]float64, sys.s.N)
				for i := range want {
					want[i] = 1 + 9*rng.Float64() // a rise of 1 to 10 K
				}
				b := make([]float64, sys.s.N)
				sys.s.MulVec(b, want)
				x := make([]float64, sys.s.N)
				if err := f.Solve(x, b); err != nil {
					t.Fatalf("%s: %v", sys.name, err)
				}
				for i := range x {
					if rel := math.Abs(x[i]-want[i]) / want[i]; rel > 1e-12 {
						t.Fatalf("%s node %d: manufactured %.15g solved %.15g (relative error %.2e)", sys.name, i, want[i], x[i], rel)
					}
				}
			}
		})
	}
}

// TestTransientStepSolvesItsSystem steps the implicit-Euler integrator,
// on its memoized and on a private factorization, 50 times from 5 K
// above ambient with a power step at step 25, and holds every step to
// its own system: the new rise r₍ₖ₊₁₎ must solve
// (C/dt + G)·r₍ₖ₊₁₎ = (C/dt)·rₖ + P with a componentwise backward error
// of at most 1e-14 (worst measured 9.8e-16).
func TestTransientStepSolvesItsSystem(t *testing.T) {
	const dt = 0.1
	for name, m := range solverModels(t) {
		t.Run(name, func(t *testing.T) {
			a, cdt := transientMatrix(m, dt)
			init := uniformTemps(m, m.Params.AmbientC+5)
			for _, kind := range []SolverKind{SolverCached, SolverSparse} {
				tr, err := m.NewTransientWith(dt, init, kind)
				if err != nil {
					t.Fatal(err)
				}
				p := randomPower(m, 42)
				dst := make([]float64, m.NumNodes)
				rhs := make([]float64, m.NumNodes)
				for step := 0; step < 50; step++ {
					if step == 25 { // power step halfway through
						for i := range p {
							p[i] *= 0.3
						}
					}
					pn, err := m.ExpandPower(p)
					if err != nil {
						t.Fatal(err)
					}
					for i := range rhs {
						rhs[i] = cdt[i]*tr.rise[i] + pn[i]
					}
					if err := tr.StepInto(dst, p); err != nil {
						t.Fatal(err)
					}
					if be := backwardError(a, tr.rise, rhs); be > 1e-14 {
						t.Fatalf("%v step %d: componentwise backward error %.2e, want <= 1e-14", kind, step, be)
					}
				}
			}
		})
	}
}

// TestSteadySlabSeriesResistance is the exact 1-D oracle: a stack whose
// every layer is one full-die core block, built through
// StackSpec.Build and NewBlockModel, is a chain of series resistances,
// so at steady state each interface's temperature step is the power of
// the layers above it times (ρ_si·t_lower/2 + ρ_int·t_int +
// ρ_si·t_upper/2)/A, and the bottom block's step to its spreader entry
// node is the total power times (ρ_si·t₀/2 + ρ_TIM·t_TIM)/A. Layers
// differ in thickness, each interface overrides its resistivity and
// thickness, and every layer dissipates. Both hold within 1e-12
// relative on both solver kinds (worst measured 3.0e-14).
func TestSteadySlabSeriesResistance(t *testing.T) {
	const dieW, dieH = 11.5, 10.0            // mm
	thick := []float64{0.15, 0.05, 0.3, 0.1} // mm, bottom first
	rhoInt := []float64{0.23, 0.05, 1.5}     // m·K/W
	tInt := []float64{0.02, 0.01, 0.04}      // mm
	power := []float64{3, 7.5, 1.25, 5}      // W, bottom first
	spec := floorplan.StackSpec{Name: "slab"}
	for l, tl := range thick {
		spec.Layers = append(spec.Layers, floorplan.LayerSpec{
			ThicknessMM: tl,
			Blocks:      []floorplan.BlockSpec{{Name: fmt.Sprintf("core%d", l), Kind: "core", W: dieW, H: dieH}},
		})
	}
	for i := range rhoInt {
		spec.Interfaces = append(spec.Interfaces, floorplan.InterfaceSpec{ResistivityMKW: rhoInt[i], ThicknessMM: tInt[i]})
	}
	stack, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	m, err := NewBlockModel(stack, p)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumBlocks() != len(thick) {
		t.Fatalf("slab has %d blocks, want one per layer (%d)", m.NumBlocks(), len(thick))
	}
	area := dieW * dieH * 1e-6 // m²
	rhoSi := p.SiliconResistivity
	check := func(kind SolverKind, what string, got, want float64) {
		t.Helper()
		if rel := math.Abs(got-want) / want; rel > 1e-12 {
			t.Errorf("%v %s: step %.15g K, series resistances give %.15g K (relative error %.2e)", kind, what, got, want, rel)
		}
	}
	for _, kind := range []SolverKind{SolverCached, SolverSparse} {
		temps, err := m.SteadyStateWith(power, kind)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rhoInt {
			above := 0.0
			for _, w := range power[i+1:] {
				above += w
			}
			r := (rhoSi*thick[i]*1e-3/2 + rhoInt[i]*tInt[i]*1e-3 + rhoSi*thick[i+1]*1e-3/2) / area
			check(kind, fmt.Sprintf("interface %d", i), temps[i+1]-temps[i], above*r)
		}
		total := 0.0
		for _, w := range power {
			total += w
		}
		r := (rhoSi*thick[0]*1e-3/2 + p.TIMResistivity*p.TIMThicknessM) / area
		check(kind, "bottom block to spreader entry", temps[0]-temps[m.NumBlocks()], total*r)
	}
}

// TestFactorCacheSharing pins the shared-model contract: one key is
// one *Model with one memoized factorization per system, a different
// key is a different model, transient factorizations are per dt,
// racing first lookups build once, and ResetFactorCache empties the
// cache and its counters.
func TestFactorCacheSharing(t *testing.T) {
	ResetFactorCache()
	t.Cleanup(ResetFactorCache)

	var builds atomic.Int32
	build := func(e floorplan.Experiment) func() (*Model, error) {
		return func() (*Model, error) {
			builds.Add(1)
			return NewBlockModel(floorplan.MustBuild(e), DefaultParams())
		}
	}
	lookup := func(key string, e floorplan.Experiment) *Model {
		t.Helper()
		m, err := SharedModel(key, build(e))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	transient := func(m *Model, dt float64) *linalg.Cholesky {
		t.Helper()
		tr, err := m.NewTransient(dt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tr.chol == nil {
			t.Fatal("cached transient has no sparse factorization")
		}
		return tr.chol
	}

	m1, m2 := lookup("exp2", floorplan.EXP2), lookup("exp2", floorplan.EXP2)
	if m1 != m2 {
		t.Fatal("two lookups of one key returned different models")
	}
	if transient(m1, 0.1) != transient(m2, 0.1) {
		t.Fatal("one model's transients hold different factorizations")
	}
	if entries, hits, misses := FactorCacheStats(); entries != 1 || hits != 1 || misses != 1 {
		t.Fatalf("one key looked up twice: entries=%d hits=%d misses=%d, want 1/1/1", entries, hits, misses)
	}

	if m3 := lookup("exp3", floorplan.EXP3); m3 == m1 {
		t.Fatal("a different key returned the same model")
	}
	if entries, _, misses := FactorCacheStats(); entries != 2 || misses != 2 {
		t.Fatalf("two keys: entries=%d misses=%d, want 2/2", entries, misses)
	}

	if f05 := transient(m1, 0.05); f05 == transient(m1, 0.1) || f05 != transient(m1, 0.05) {
		t.Fatal("transient factorizations are not memoized per dt")
	}

	builds.Store(0)
	var wg sync.WaitGroup
	models := make([]*Model, 8)
	factors := make([]*linalg.Cholesky, 8)
	for w := range models {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := SharedModel("exp4", build(floorplan.EXP4))
			if err != nil {
				t.Error(err)
				return
			}
			tr, err := m.NewTransient(0.1, nil)
			if err != nil {
				t.Error(err)
				return
			}
			models[w], factors[w] = m, tr.chol
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("8 racing lookups built %d models, want 1", n)
	}
	for w := range models {
		if models[w] != models[0] || factors[w] != factors[0] {
			t.Fatalf("racer %d got a different model or factorization", w)
		}
	}

	ResetFactorCache()
	if entries, hits, misses := FactorCacheStats(); entries != 0 || hits != 0 || misses != 0 {
		t.Fatalf("after reset: entries=%d hits=%d misses=%d, want 0/0/0", entries, hits, misses)
	}
	if lookup("exp2", floorplan.EXP2) == m1 {
		t.Fatal("a lookup after reset returned the dropped model")
	}
}

// TestSolverKindRoundTrip covers the flag parsing helpers.
func TestSolverKindRoundTrip(t *testing.T) {
	for _, k := range []SolverKind{SolverCached, SolverSparse, SolverDense} {
		got, err := ParseSolverKind(k.String())
		if err != nil || got != k {
			t.Fatalf("round trip %v: got %v err %v", k, got, err)
		}
	}
	if _, err := ParseSolverKind("nope"); err == nil {
		t.Fatal("expected error for unknown kind")
	}
	if k, err := ParseSolverKind(""); err != nil || k != SolverCached {
		t.Fatalf("empty string should default to cached, got %v err %v", k, err)
	}
}

// TestFactorCacheBounded pins the shared-cache eviction bound: a
// server fed ever-new thermal systems (client-chosen grid dims or
// resistivities) must not pin models without limit.
func TestFactorCacheBounded(t *testing.T) {
	ResetFactorCache()
	defer ResetFactorCache()
	for i := 0; i < maxSharedModels+20; i++ {
		key := fmt.Sprintf("bound-test-%d", i)
		if _, err := SharedModel(key, func() (*Model, error) {
			return &Model{}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	entries, _, misses := FactorCacheStats()
	if entries > maxSharedModels {
		t.Fatalf("cache holds %d models, bound is %d", entries, maxSharedModels)
	}
	if misses != int64(maxSharedModels+20) {
		t.Fatalf("built %d models, want %d", misses, maxSharedModels+20)
	}
}

// TestSolverKindJSON pins the wire format the dtmserved sweep API uses.
func TestSolverKindJSON(t *testing.T) {
	for _, k := range []SolverKind{SolverCached, SolverSparse, SolverDense} {
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatalf("marshal %v: %v", k, err)
		}
		if want := fmt.Sprintf("%q", k.String()); string(b) != want {
			t.Errorf("marshal %v = %s, want %s", k, b, want)
		}
		var got SolverKind
		if err := json.Unmarshal(b, &got); err != nil || got != k {
			t.Errorf("unmarshal %s: got %v err %v", b, got, err)
		}
	}
	var k SolverKind
	if err := json.Unmarshal([]byte(`"nope"`), &k); err == nil {
		t.Error("unmarshal accepted an unknown solver kind")
	}
	if err := json.Unmarshal([]byte(`7`), &k); err == nil {
		t.Error("unmarshal accepted a bare number")
	}
	if _, err := json.Marshal(SolverKind(42)); err == nil {
		t.Error("marshal accepted an invalid solver kind")
	}
}
