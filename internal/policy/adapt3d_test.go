package policy

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/thermal"
	"repro/internal/workload"
)

func TestNewAdapt3DValidation(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP1)
	if _, err := NewAdapt3D(nil, nil, DefaultAdapt3DConfig()); err == nil {
		t.Error("nil stack accepted")
	}
	cfg := DefaultAdapt3DConfig()
	cfg.BetaInc = 0
	if _, err := NewAdapt3D(s, nil, cfg); err == nil {
		t.Error("zero beta accepted")
	}
	cfg = DefaultAdapt3DConfig()
	cfg.Window = 0
	if _, err := NewAdapt3D(s, nil, cfg); err == nil {
		t.Error("zero window accepted")
	}
	cfg = DefaultAdapt3DConfig()
	cfg.Alpha = []float64{0.5} // wrong length
	if _, err := NewAdapt3D(s, nil, cfg); err == nil {
		t.Error("short alpha accepted")
	}
	cfg = DefaultAdapt3DConfig()
	cfg.Alpha = make([]float64, 8)
	cfg.Alpha[0] = 1.5 // out of (0,1)
	if _, err := NewAdapt3D(s, nil, cfg); err == nil {
		t.Error("alpha out of range accepted")
	}
}

func TestDefaultAdapt3DConfigMatchesPaper(t *testing.T) {
	cfg := DefaultAdapt3DConfig()
	if cfg.BetaInc != 0.01 || cfg.BetaDec != 0.1 || cfg.Window != 10 {
		t.Errorf("constants %+v do not match the paper (βinc=0.01, βdec=0.1, window=10)", cfg)
	}
}

// TestWeightEquation verifies Eq. 3 exactly.
func TestWeightEquation(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP1)
	cfg := DefaultAdapt3DConfig()
	cfg.Alpha = []float64{0.2, 0.8, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5}
	p, err := NewAdapt3D(s, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Cooling direction (Tpref >= Tavg): W = βinc · Wdiff / α.
	wdiff := 5.0
	if got := p.weight(0, wdiff); math.Abs(got-0.01*5/0.2) > 1e-12 {
		t.Errorf("increase weight = %g, want %g", got, 0.01*5/0.2)
	}
	// Heating direction: W = βdec · Wdiff · α (negative).
	wdiff = -5.0
	if got := p.weight(1, wdiff); math.Abs(got-0.1*(-5)*0.8) > 1e-12 {
		t.Errorf("decrease weight = %g, want %g", got, 0.1*(-5)*0.8)
	}
}

func TestWeightAsymmetry(t *testing.T) {
	// Per Section III-B: when decreasing, high-α cores lose probability
	// faster; when increasing, high-α cores gain more slowly.
	s := floorplan.MustBuild(floorplan.EXP1)
	cfg := DefaultAdapt3DConfig()
	cfg.Alpha = []float64{0.2, 0.8, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5}
	p, _ := NewAdapt3D(s, nil, cfg)
	if !(p.weight(1, -3) < p.weight(0, -3)) {
		t.Error("high-α core should lose probability faster when hot")
	}
	if !(p.weight(1, 3) < p.weight(0, 3)) {
		t.Error("high-α core should gain probability more slowly when cool")
	}
}

func TestProbabilitiesShiftAwayFromHotCore(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP1)
	cfg := DefaultAdapt3DConfig()
	cfg.Seed = 1
	p, err := NewAdapt3D(s, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	temps := []float64{84, 60, 60, 60, 60, 60, 60, 60} // hot but below threshold
	v := testView(t, 8, temps)
	for i := 0; i < 30; i++ {
		p.Tick(v)
	}
	probs := p.Probabilities()
	for c := 1; c < 8; c++ {
		if probs[0] >= probs[c] {
			t.Errorf("hot core 0 probability %g should be below cool core %d's %g", probs[0], c, probs[c])
		}
	}
	sum := 0.0
	for _, x := range probs {
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %g", sum)
	}
}

func TestThresholdZeroesProbability(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP1)
	cfg := DefaultAdapt3DConfig()
	cfg.Seed = 2
	p, _ := NewAdapt3D(s, nil, cfg)
	temps := []float64{90, 60, 60, 60, 60, 60, 60, 60}
	v := testView(t, 8, temps)
	p.Tick(v)
	if got := p.Probabilities()[0]; got != 0 {
		t.Errorf("above-threshold core probability = %g, want 0", got)
	}
	// And sampling never selects it.
	for i := 0; i < 40; i++ {
		if c := p.AssignCore(v, workload.Job{ID: i}); c == 0 {
			t.Fatal("assigned to above-threshold core")
		}
	}
}

func TestGeometricIndicesOrdering(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP3)
	alpha := GeometricIndices(s)
	if len(alpha) != 16 {
		t.Fatalf("got %d indices", len(alpha))
	}
	for i := 0; i < 8; i++ {
		if alpha[8+i] <= alpha[i] {
			t.Errorf("far-layer core %d index %g should exceed near-layer core %d index %g",
				8+i, alpha[8+i], i, alpha[i])
		}
	}
	for i, a := range alpha {
		if a <= 0 || a >= 1 {
			t.Errorf("α[%d]=%g out of (0,1)", i, a)
		}
	}
}

func TestSteadyStateIndicesOrdering(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP3)
	m, err := thermal.NewBlockModel(s, thermal.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	alpha, err := SteadyStateIndices(s, m)
	if err != nil {
		t.Fatal(err)
	}
	// Cores on layer 2 are hotter at steady state, so their indices must
	// dominate their layer-0 twins.
	for i := 0; i < 8; i++ {
		if alpha[8+i] <= alpha[i] {
			t.Errorf("steady-state α: far core %d (%g) should exceed near core %d (%g)",
				8+i, alpha[8+i], i, alpha[i])
		}
	}
}

// TestNewAdapt3DWithModel checks where NewAdapt3D takes its indices
// from: the model's steady-state solve when given a model, the stack
// geometry without one.
func TestNewAdapt3DWithModel(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP2)
	m, _ := thermal.NewBlockModel(s, thermal.DefaultParams())
	p, err := NewAdapt3D(s, m, DefaultAdapt3DConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Alpha()) != 8 {
		t.Errorf("alpha length %d", len(p.Alpha()))
	}
	steady, err := SteadyStateIndices(s, m)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Alpha(), steady) {
		t.Errorf("indices with a model %v, want the steady-state indices %v", p.Alpha(), steady)
	}
	g, err := NewAdapt3D(s, nil, DefaultAdapt3DConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Alpha(), GeometricIndices(s)) {
		t.Errorf("indices without a model %v, want the geometric indices %v", g.Alpha(), GeometricIndices(s))
	}
}

func TestAdapt3DFavorsNearSinkLayerUnderStress(t *testing.T) {
	// With every core equally warm (slightly above Tpref), the α
	// asymmetry drains hot-spot-prone far-layer cores faster (the
	// βdec·Wdiff·α term of Eq. 3), shifting allocation mass toward the
	// near-sink layer. (When everything is cool all cores saturate at
	// full willingness — uniform allocation is then the correct answer.)
	s := floorplan.MustBuild(floorplan.EXP3)
	cfg := DefaultAdapt3DConfig()
	cfg.Seed = 3
	p, err := NewAdapt3D(s, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	temps := make([]float64, 16)
	for i := range temps {
		temps[i] = 83 // uniformly a few degrees above Tpref=80
	}
	v := testView(t, 16, temps)
	for i := 0; i < 3; i++ {
		p.Tick(v)
	}
	probs := p.Probabilities()
	nearMass, farMass := 0.0, 0.0
	for i := 0; i < 8; i++ {
		nearMass += probs[i]
		farMass += probs[8+i]
	}
	if nearMass <= farMass {
		t.Errorf("near-sink layer mass %g should exceed far-layer mass %g under uniform stress", nearMass, farMass)
	}
}

func TestAdapt3DDeterministicSampling(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP1)
	mk := func() *Adapt3D {
		cfg := DefaultAdapt3DConfig()
		cfg.Seed = 42
		p, _ := NewAdapt3D(s, nil, cfg)
		return p
	}
	a, b := mk(), mk()
	temps := []float64{70, 65, 72, 60, 75, 68, 62, 71}
	v := testView(t, 8, temps)
	for i := 0; i < 10; i++ {
		a.Tick(v)
		b.Tick(v)
	}
	for i := 0; i < 100; i++ {
		if a.AssignCore(v, workload.Job{ID: i}) != b.AssignCore(v, workload.Job{ID: i}) {
			t.Fatal("same seed produced different assignments")
		}
	}
}

func TestAdapt3DNameAndInterfaceCompliance(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP1)
	p, _ := NewAdapt3D(s, nil, DefaultAdapt3DConfig())
	var _ Policy = p
	if p.Name() != "Adapt3D" {
		t.Errorf("Name = %q", p.Name())
	}
	// Tick with no valid observation should not panic and returns an
	// empty decision.
	d := p.Tick(testView(t, 8, make([]float64, 8)))
	if d.Levels != nil || d.Gate != nil || d.Migrations != nil {
		t.Error("Adapt3D should not actuate DVFS or migrations by itself")
	}
}

func TestOnlineWindowRefreshesAlpha(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP1)
	cfg := DefaultAdapt3DConfig()
	cfg.Seed = 1
	cfg.OnlineWindow = 5
	// Start from uniform indices so any change must come from the online
	// estimator.
	cfg.Alpha = []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5}
	p, err := NewAdapt3D(s, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Core 3 consistently hottest, core 0 coolest.
	temps := []float64{60, 65, 66, 78, 67, 68, 69, 70}
	v := testView(t, 8, temps)
	for i := 0; i < 5; i++ {
		p.Tick(v)
	}
	alpha := p.Alpha()
	if alpha[3] != 0.9 {
		t.Errorf("hottest core α = %g, want 0.9 after the online refresh", alpha[3])
	}
	if alpha[0] != 0.1 {
		t.Errorf("coolest core α = %g, want 0.1", alpha[0])
	}
	for i := 1; i < 8; i++ {
		if i != 3 && alpha[i] >= alpha[3] {
			t.Errorf("core %d α %g should be below hottest core's", i, alpha[i])
		}
	}
}

func TestOnlineWindowResetsBetweenWindows(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP1)
	cfg := DefaultAdapt3DConfig()
	cfg.Seed = 1
	cfg.OnlineWindow = 3
	p, err := NewAdapt3D(s, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// First window: core 0 hottest.
	hot0 := []float64{90, 60, 60, 60, 60, 60, 60, 60}
	for i := 0; i < 3; i++ {
		p.Tick(testView(t, 8, hot0))
	}
	if a := p.Alpha(); a[0] != 0.9 {
		t.Fatalf("after first window α[0] = %g, want 0.9", a[0])
	}
	// Second window: core 7 hottest; the estimator must forget window 1.
	hot7 := []float64{60, 60, 60, 60, 60, 60, 60, 90}
	for i := 0; i < 3; i++ {
		p.Tick(testView(t, 8, hot7))
	}
	if a := p.Alpha(); a[7] != 0.9 {
		t.Errorf("after second window α[7] = %g, want 0.9 (stale history retained?)", a[7])
	}
}

func TestRankIndicesProperties(t *testing.T) {
	vals := []float64{5, 1, 3, 9}
	idx := rankIndices(vals)
	if len(idx) != 4 {
		t.Fatal("length mismatch")
	}
	// Ordering preserved.
	if !(idx[1] < idx[2] && idx[2] < idx[0] && idx[0] < idx[3]) {
		t.Errorf("rank ordering broken: %v", idx)
	}
	if math.Abs(idx[1]-0.1) > 1e-12 || math.Abs(idx[3]-0.9) > 1e-12 {
		t.Errorf("extremes should map to 0.1/0.9: %v", idx)
	}
	if one := rankIndices([]float64{42}); one[0] != 0.5 {
		t.Errorf("singleton should map to 0.5, got %g", one[0])
	}
}
