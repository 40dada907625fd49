package thermal

import (
	"math"
	"testing"

	"repro/internal/floorplan"
)

// uniformTemps returns a node temperature vector of m at tempC.
func uniformTemps(m *Model, tempC float64) []float64 {
	t := make([]float64, m.NumNodes)
	for i := range t {
		t[i] = tempC
	}
	return t
}

// uniformCorePower returns a block power vector giving each core pw watts
// and everything else 0.
func uniformCorePower(s *floorplan.Stack, pw float64) []float64 {
	p := make([]float64, s.NumBlocks())
	for _, c := range s.Cores() {
		p[s.BlockIndex(c)] = pw
	}
	return p
}

func TestParamsValidate(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	p.ConvectionR = 0
	if err := p.Validate(); err == nil {
		t.Error("zero convection resistance accepted")
	}
	p = DefaultParams()
	p.SinkSideM = p.SpreaderSideM / 2
	if err := p.Validate(); err == nil {
		t.Error("sink smaller than spreader accepted")
	}
}

func TestBlockModelShape(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP1)
	m, err := NewBlockModel(s, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	wantNodes := s.NumBlocks() + len(s.Layers[0].Blocks) + numPackageNodes
	if m.NumNodes != wantNodes {
		t.Errorf("NumNodes = %d, want %d (blocks + spreader entries + package)", m.NumNodes, wantNodes)
	}
	if m.G.MaxOffDiagAsymmetry() > 1e-12 {
		t.Error("conductance matrix not symmetric")
	}
	for i, c := range m.C {
		if c <= 0 {
			t.Errorf("node %d has non-positive capacitance %g", i, c)
		}
	}
}

func TestSteadyStateZeroPowerIsAmbient(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP1)
	m, err := NewBlockModel(s, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	temps, err := m.SteadyState(make([]float64, s.NumBlocks()))
	if err != nil {
		t.Fatal(err)
	}
	for i, tt := range temps {
		if math.Abs(tt-m.Params.AmbientC) > 1e-6 {
			t.Fatalf("node %d at %g °C under zero power, want ambient %g", i, tt, m.Params.AmbientC)
		}
	}
}

func TestSteadyStateEnergyConservation(t *testing.T) {
	for _, e := range floorplan.ExtendedExperiments() {
		s := floorplan.MustBuild(e)
		m, err := NewBlockModel(s, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		pw := uniformCorePower(s, 3.0)
		total := 0.0
		for _, v := range pw {
			total += v
		}
		temps, err := m.SteadyState(pw)
		if err != nil {
			t.Fatal(err)
		}
		q := m.AmbientHeatFlow(temps)
		if math.Abs(q-total) > 1e-6*total {
			t.Errorf("%v: heat to ambient %.6f W, injected %.6f W", e, q, total)
		}
	}
}

func TestSteadyStateMonotoneInPower(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP2)
	m, _ := NewBlockModel(s, DefaultParams())
	t1, _ := m.SteadyState(uniformCorePower(s, 2))
	t2, _ := m.SteadyState(uniformCorePower(s, 4))
	for i := range t1 {
		if t2[i] < t1[i]-1e-9 {
			t.Fatalf("node %d cooled when power doubled: %g -> %g", i, t1[i], t2[i])
		}
	}
}

func TestSteadyStateLinearity(t *testing.T) {
	// The network is linear: T(2P) - Tamb == 2*(T(P) - Tamb).
	s := floorplan.MustBuild(floorplan.EXP1)
	m, _ := NewBlockModel(s, DefaultParams())
	amb := m.Params.AmbientC
	t1, _ := m.SteadyState(uniformCorePower(s, 1.5))
	t2, _ := m.SteadyState(uniformCorePower(s, 3.0))
	for i := range t1 {
		if math.Abs((t2[i]-amb)-2*(t1[i]-amb)) > 1e-8 {
			t.Fatalf("node %d violates linearity: rise(3W)=%g rise(1.5W)=%g", i, t2[i]-amb, t1[i]-amb)
		}
	}
}

func TestUpperLayersRunHotter(t *testing.T) {
	// With identical per-core power, cores farther from the sink must be
	// hotter — the key 3D asymmetry Adapt3D exploits (paper Section III).
	s := floorplan.MustBuild(floorplan.EXP3)
	m, _ := NewBlockModel(s, DefaultParams())
	temps, err := m.SteadyState(uniformCorePower(s, 3))
	if err != nil {
		t.Fatal(err)
	}
	core := m.CoreTemps(temps)
	// Cores 0..7 sit on layer 0, cores 8..15 on layer 2 (same lateral
	// slots). Compare pairwise.
	for i := 0; i < 8; i++ {
		if core[8+i] <= core[i] {
			t.Errorf("core %d (layer 2) at %.2f °C not hotter than core %d (layer 0) at %.2f °C",
				8+i, core[8+i], i, core[i])
		}
	}
}

func TestFourLayerHotterThanTwoLayer(t *testing.T) {
	p := DefaultParams()
	s2 := floorplan.MustBuild(floorplan.EXP1)
	s4 := floorplan.MustBuild(floorplan.EXP3)
	m2, _ := NewBlockModel(s2, p)
	m4, _ := NewBlockModel(s4, p)
	t2, _ := m2.SteadyState(uniformCorePower(s2, 3))
	t4, _ := m4.SteadyState(uniformCorePower(s4, 3))
	max2, max4 := 0.0, 0.0
	for _, v := range m2.CoreTemps(t2) {
		max2 = math.Max(max2, v)
	}
	for _, v := range m4.CoreTemps(t4) {
		max4 = math.Max(max4, v)
	}
	if max4 <= max2 {
		t.Errorf("4-layer peak %.2f °C should exceed 2-layer peak %.2f °C", max4, max2)
	}
}

func TestCentralCoresHotter(t *testing.T) {
	// 2D principle used by DVFS_FLP: central cores run hotter than corner
	// cores under uniform power. EXP2 has its first core row directly on
	// the sink-side layer, where the lateral escape asymmetry is
	// strongest.
	s := floorplan.MustBuild(floorplan.EXP2)
	m, _ := NewBlockModel(s, DefaultParams())
	temps, _ := m.SteadyState(uniformCorePower(s, 3))
	core := m.CoreTemps(temps)
	// Layer-0 core row 0..3: 0 and 3 are corners, 1 and 2 inner.
	if core[1] <= core[0] || core[2] <= core[3] {
		t.Errorf("inner cores (%.3f, %.3f) should be hotter than corner cores (%.3f, %.3f)",
			core[1], core[2], core[0], core[3])
	}
}

func TestTransientConvergesToSteadyState(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP1)
	m, _ := NewBlockModel(s, DefaultParams())
	pw := uniformCorePower(s, 3)
	want, _ := m.SteadyState(pw)

	tr, err := m.NewTransient(0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	for i := 0; i < 3000; i++ { // 300 simulated seconds >> sink time constant
		got, err = tr.Step(pw)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 0.05 {
			t.Fatalf("node %d transient %.3f °C vs steady %.3f °C", i, got[i], want[i])
		}
	}
}

func TestTransientMatchesRK4(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP1)
	m, _ := NewBlockModel(s, DefaultParams())
	pw := uniformCorePower(s, 3)

	dt := 0.1
	tr, _ := m.NewTransient(dt, nil)
	rk := uniformTemps(m, m.Params.AmbientC)
	var be []float64
	var err error
	for i := 0; i < 20; i++ {
		be, err = tr.Step(pw)
		if err != nil {
			t.Fatal(err)
		}
		rk, err = m.StepRK4(rk, pw, dt)
		if err != nil {
			t.Fatal(err)
		}
	}
	// Backward Euler is first order; allow a modest tolerance against RK4.
	for i := range be {
		if math.Abs(be[i]-rk[i]) > 0.5 {
			t.Fatalf("node %d: implicit Euler %.3f vs RK4 %.3f after 2 s", i, be[i], rk[i])
		}
	}
}

func TestTransientHoldsSteadyState(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP2)
	m, _ := NewBlockModel(s, DefaultParams())
	pw := uniformCorePower(s, 2.5)
	ss, _ := m.SteadyState(pw)
	tr, err := m.NewTransient(0.1, ss)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tr.Step(pw)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ss {
		if math.Abs(got[i]-ss[i]) > 1e-6 {
			t.Fatalf("steady state drifted at node %d: %.9f -> %.9f", i, ss[i], got[i])
		}
	}
}

func TestTransientValidation(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP1)
	m, _ := NewBlockModel(s, DefaultParams())
	if _, err := m.NewTransient(0, nil); err == nil {
		t.Error("zero dt accepted")
	}
	if _, err := m.NewTransient(0.1, []float64{1}); err == nil {
		t.Error("short init vector accepted")
	}
	tr, _ := m.NewTransient(0.1, nil)
	if _, err := tr.Step([]float64{1, 2}); err == nil {
		t.Error("wrong power vector length accepted")
	}
	if err := tr.SetTemps([]float64{1}); err == nil {
		t.Error("short SetTemps accepted")
	}
}

func TestGridModelMatchesBlockModel(t *testing.T) {
	// Coarse grid-mode core temperatures should track block mode within a
	// couple of degrees — same physics, different discretization.
	s := floorplan.MustBuild(floorplan.EXP1)
	p := DefaultParams()
	bm, err := NewBlockModel(s, p)
	if err != nil {
		t.Fatal(err)
	}
	gm, err := NewGridModel(s, p, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	pw := uniformCorePower(s, 3)
	tb, err := bm.SteadyState(pw)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := gm.SteadyState(pw)
	if err != nil {
		t.Fatal(err)
	}
	cb := bm.CoreTemps(tb)
	cg := gm.CoreTemps(tg)
	for i := range cb {
		if math.Abs(cb[i]-cg[i]) > 2.5 {
			t.Errorf("core %d: block %.2f °C vs grid %.2f °C", i, cb[i], cg[i])
		}
	}
}

func TestGridModelEnergyConservation(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP2)
	gm, err := NewGridModel(s, DefaultParams(), 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	pw := uniformCorePower(s, 3)
	total := 0.0
	for _, v := range pw {
		total += v
	}
	temps, err := gm.SteadyState(pw)
	if err != nil {
		t.Fatal(err)
	}
	if q := gm.AmbientHeatFlow(temps); math.Abs(q-total) > 1e-6*total {
		t.Errorf("grid heat to ambient %.6f W, injected %.6f W", q, total)
	}
}

func TestGridModelValidation(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP1)
	if _, err := NewGridModel(s, DefaultParams(), 0, 8); err == nil {
		t.Error("zero rows accepted")
	}
}

func TestTSVJointResistivityMatchesPaper(t *testing.T) {
	// Section IV-C: 1024 vias on the 115 mm² layer give a joint
	// resistivity of ~0.23 m·K/W with <1% area overhead.
	m := NewTSVModel()
	rho := m.JointResistivity(1024)
	if math.Abs(rho-0.23) > 0.005 {
		t.Errorf("joint resistivity with 1024 vias = %.4f, paper says ~0.23", rho)
	}
	if ov := m.AreaOverhead(1024); ov >= 0.01 {
		t.Errorf("area overhead with 1024 vias = %.4f%%, paper keeps it below 1%%", 100*ov)
	}
	// Over 8 TSVs per mm²: 1024/115 ≈ 8.9.
	if perMM2 := 1024.0 / 115.0; perMM2 < 8 {
		t.Errorf("via density %.2f per mm², paper states over 8", perMM2)
	}
}

func TestTSVResistivityMonotone(t *testing.T) {
	m := NewTSVModel()
	prev := m.JointResistivity(0)
	if prev != m.BaseResistivity {
		t.Errorf("zero vias should give base resistivity, got %g", prev)
	}
	for _, n := range []int{64, 256, 1024, 4096, 16384} {
		rho := m.JointResistivity(n)
		if rho >= prev {
			t.Errorf("resistivity did not decrease at %d vias: %g >= %g", n, rho, prev)
		}
		if rho < m.ViaResistivity {
			t.Errorf("resistivity %g below pure-copper bound %g", rho, m.ViaResistivity)
		}
		prev = rho
	}
}

func TestTSVDensityEdgeCases(t *testing.T) {
	m := NewTSVModel()
	if m.Density(-5) != 0 || m.AreaOverhead(-5) != 0 {
		t.Error("negative via count should give zero density")
	}
	if rho := m.JointResistivity(-5); rho != m.BaseResistivity {
		t.Errorf("negative via count: rho=%g, want the base %g", rho, m.BaseResistivity)
	}
	full := int(math.Ceil(m.LayerAreaM2 / ViaAreaM2()))
	if m.Density(full) < 1 {
		t.Fatalf("%d vias cover density %g, want >= 1", full, m.Density(full))
	}
	if rho := m.JointResistivity(full); rho != m.ViaResistivity {
		t.Errorf("full density: rho=%g, want the via %g", rho, m.ViaResistivity)
	}
}

func TestFig2Curve(t *testing.T) {
	m := NewTSVModel()
	pts := m.Fig2Curve(DefaultFig2ViaCounts())
	if len(pts) != len(DefaultFig2ViaCounts()) {
		t.Fatalf("curve has %d points, want %d", len(pts), len(DefaultFig2ViaCounts()))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].JointResistivity > pts[i-1].JointResistivity {
			t.Errorf("Fig2 curve not monotonically decreasing at %d vias", pts[i].ViaCount)
		}
	}
	// Paper observation: "even when the TSV density reaches 1-2%, the
	// effect on the temperature profile is limited" — resistivity stays
	// the same order of magnitude across the swept range.
	last := pts[len(pts)-1]
	if last.JointResistivity < 0.1 {
		t.Errorf("resistivity at %d vias = %.3f, expected gentle decline per Fig 2", last.ViaCount, last.JointResistivity)
	}
}

func TestInterlayerResistivityAffectsTopLayerTemps(t *testing.T) {
	// Lower joint resistivity (more TSVs) should cool the layer far from
	// the sink.
	p := DefaultParams()
	sDense, _ := floorplan.BuildWithResistivity(floorplan.EXP1, 0.05)
	sSparse, _ := floorplan.BuildWithResistivity(floorplan.EXP1, 0.25)
	mDense, _ := NewBlockModel(sDense, p)
	mSparse, _ := NewBlockModel(sSparse, p)
	// Heat only the top layer so the interlayer resistance is on the path
	// to the sink.
	pw := make([]float64, sDense.NumBlocks())
	for _, b := range sDense.Layers[1].Blocks {
		pw[sDense.BlockIndex(b)] = 3
	}
	td, _ := mDense.SteadyState(pw)
	ts, _ := mSparse.SteadyState(pw)
	maxD, maxS := 0.0, 0.0
	for _, b := range sDense.Layers[1].Blocks {
		maxD = math.Max(maxD, mDense.BlockTemps(td)[sDense.BlockIndex(b)])
	}
	for _, b := range sSparse.Layers[1].Blocks {
		maxS = math.Max(maxS, mSparse.BlockTemps(ts)[sSparse.BlockIndex(b)])
	}
	if maxD >= maxS {
		t.Errorf("dense TSVs should cool the far layer: %.2f °C (dense) vs %.2f °C (sparse)", maxD, maxS)
	}
}

func TestSensorsIdeal(t *testing.T) {
	s, err := NewSensors(SensorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	in := []float64{50.1, 72.9}
	out := s.Read(in)
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("ideal sensor altered reading: %g -> %g", in[i], out[i])
		}
	}
}

func TestSensorsQuantization(t *testing.T) {
	s, _ := NewSensors(SensorConfig{QuantizationC: 0.5})
	out := s.Read([]float64{50.2, 50.3, -1.3})
	want := []float64{50.0, 50.5, -1.5}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-12 {
			t.Errorf("quantized reading %d = %g, want %g", i, out[i], want[i])
		}
	}
}

func TestSensorsNoiseReproducible(t *testing.T) {
	a, _ := NewSensors(SensorConfig{NoiseStdDevC: 1, Seed: 42})
	b, _ := NewSensors(SensorConfig{NoiseStdDevC: 1, Seed: 42})
	in := []float64{60, 60, 60, 60}
	ra, rb := a.Read(in), b.Read(in)
	for i := range ra {
		if ra[i] != rb[i] {
			t.Error("same seed produced different noise")
		}
	}
	var differs bool
	for i := range ra {
		if ra[i] != in[i] {
			differs = true
		}
	}
	if !differs {
		t.Error("noise sensor returned exact temperatures")
	}
}

func TestSensorsValidation(t *testing.T) {
	if _, err := NewSensors(SensorConfig{NoiseStdDevC: -1}); err == nil {
		t.Error("negative noise accepted")
	}
	if _, err := NewSensors(SensorConfig{QuantizationC: -1}); err == nil {
		t.Error("negative quantization accepted")
	}
}
