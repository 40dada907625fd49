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

// denseSteadyState is the dense LU reference of SteadyState: G
// densified and solved by linalg.SolveDense.
func denseSteadyState(t *testing.T, m *Model, blockPower []float64) []float64 {
	t.Helper()
	pn, err := m.ExpandPower(blockPower)
	if err != nil {
		t.Fatal(err)
	}
	x, err := linalg.SolveDense(m.G.ToDense(), pn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		x[i] += m.Params.AmbientC
	}
	return x
}

// TestSteadyStateSparseMatchesDense cross-validates the production
// sparse steady-state path, memoized and private, against the dense LU
// reference on every experiment's block model and on grid models,
// within 1e-8.
func TestSteadyStateSparseMatchesDense(t *testing.T) {
	for name, m := range solverModels(t) {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				p := randomPower(m, seed)
				dense := denseSteadyState(t, m, p)
				for _, kind := range []SolverKind{SolverCached, SolverSparse} {
					got, err := m.SteadyStateWith(p, kind)
					if err != nil {
						t.Fatalf("%v: %v", kind, err)
					}
					for i := range got {
						if d := math.Abs(got[i] - dense[i]); d > 1e-8 {
							t.Fatalf("%v node %d: sparse %.12f dense %.12f (|Δ|=%.3e)", kind, i, got[i], dense[i], d)
						}
					}
				}
			}
		})
	}
}

// TestTransientSparseMatchesDense steps the implicit-Euler integrator
// from the same initial condition on its sparse factorization and on a
// dense LU factorization of C/dt + G, and demands node-for-node
// agreement within 1e-8 over a power step response.
func TestTransientSparseMatchesDense(t *testing.T) {
	const dt = 0.1
	for name, m := range solverModels(t) {
		t.Run(name, func(t *testing.T) {
			p := randomPower(m, 42)
			init := uniformTemps(m, m.Params.AmbientC+5)
			trS, err := m.NewTransient(dt, init)
			if err != nil {
				t.Fatal(err)
			}
			a := m.G.ToDense()
			for i, c := range m.C {
				a.Add(i, i, c/dt)
			}
			lu, err := linalg.Factor(a)
			if err != nil {
				t.Fatal(err)
			}
			// The dense reference integrates the rise above ambient,
			// as Transient does.
			rise := make([]float64, m.NumNodes)
			for i := range rise {
				rise[i] = init[i] - m.Params.AmbientC
			}
			rhs := make([]float64, m.NumNodes)
			td := make([]float64, m.NumNodes)
			ts := make([]float64, m.NumNodes)
			for step := 0; step < 50; step++ {
				if step == 25 { // power step halfway through
					for i := range p {
						p[i] *= 0.3
					}
				}
				if err := trS.StepInto(ts, p); err != nil {
					t.Fatal(err)
				}
				pn, err := m.ExpandPower(p)
				if err != nil {
					t.Fatal(err)
				}
				for i := range rhs {
					rhs[i] = m.C[i]/dt*rise[i] + pn[i]
				}
				if err := lu.Solve(rise, rhs); err != nil {
					t.Fatal(err)
				}
				for i, r := range rise {
					td[i] = r + m.Params.AmbientC
				}
				for i := range ts {
					if d := math.Abs(ts[i] - td[i]); d > 1e-8 {
						t.Fatalf("step %d node %d: sparse %.12f dense %.12f (|Δ|=%.3e)", step, i, ts[i], td[i], d)
					}
				}
			}
		})
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
