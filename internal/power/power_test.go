package power

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/floorplan"
)

func TestDefaultDVFSMatchesPaper(t *testing.T) {
	d := DefaultDVFS()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Levels() != 3 {
		t.Fatalf("paper assumes 3 V/f levels, got %d", d.Levels())
	}
	want := []float64{1.0, 0.95, 0.85}
	for i, f := range want {
		if d.FreqScale(VfLevel(i)) != f {
			t.Errorf("level %d freq = %g, want %g", i, d.FreqScale(VfLevel(i)), f)
		}
	}
}

func TestDVFSPowerScaleIsFV2(t *testing.T) {
	d := DefaultDVFS()
	for l := 0; l < d.Levels(); l++ {
		want := d.Freq[l] * d.Volt[l] * d.Volt[l]
		if got := d.PowerScale(VfLevel(l)); math.Abs(got-want) > 1e-12 {
			t.Errorf("level %d power scale = %g, want f·V² = %g", l, got, want)
		}
	}
	if d.PowerScale(0) != 1 {
		t.Error("default level must have unit power scale")
	}
}

func TestDVFSClamp(t *testing.T) {
	d := DefaultDVFS()
	if d.Clamp(-3) != 0 {
		t.Error("negative level should clamp to 0")
	}
	if d.Clamp(99) != VfLevel(d.Levels()-1) {
		t.Error("oversized level should clamp to slowest")
	}
}

func TestDVFSLowestLevelFor(t *testing.T) {
	d := DefaultDVFS()
	cases := []struct {
		util float64
		want VfLevel
	}{
		{0.99, 0}, // needs full speed
		{0.95, 1}, // exactly the middle setting
		{0.90, 1}, // middle covers 0.90
		{0.80, 2}, // slowest covers 0.80
		{0.10, 2}, // deeply idle: slowest
		{-1, 2},   // clamped
		{2, 0},    // clamped to full speed
	}
	for _, c := range cases {
		if got := d.LowestLevelFor(c.util); got != c.want {
			t.Errorf("LowestLevelFor(%g) = %d, want %d", c.util, got, c.want)
		}
	}
}

// TestDVFSLowestLevelForClamp holds LowestLevelFor's builtin clamp to
// the math.Min/math.Max clamp it replaced, bit for bit, and the level
// it picks to the old rule's, on the inputs where the two could part:
// ±0, subnormals, ±Inf, NaN, the table's frequencies and 1 ± 1 ulp.
// It also holds LowestLevelFor(x) to LowestLevelFor(math.Min(x, 1)),
// the form demand-covering policies called it in.
func TestDVFSLowestLevelForClamp(t *testing.T) {
	d := DefaultDVFS()
	oldClamp := func(u float64) float64 { return math.Min(math.Max(u, 0), 1) }
	oldLevel := func(u float64) VfLevel {
		u = oldClamp(u)
		best := VfLevel(0)
		for l := 0; l < d.Levels(); l++ {
			if d.Freq[l] >= u {
				best = VfLevel(l)
			} else {
				break
			}
		}
		return best
	}
	for _, u := range []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
		0.85, 0.95, 1, math.Nextafter(1, 0), math.Nextafter(1, 2), 1.1,
	} {
		if got, want := min(max(u, 0), 1), oldClamp(u); !sameBits(got, want) || math.Signbit(got) != math.Signbit(want) {
			t.Errorf("clamp(%g) = %g (%#x), math.Min/math.Max %g (%#x)", u, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if got, want := d.LowestLevelFor(u), oldLevel(u); got != want {
			t.Errorf("LowestLevelFor(%g) = %d, the old rule %d", u, got, want)
		}
		if got, want := d.LowestLevelFor(u), d.LowestLevelFor(math.Min(u, 1)); got != want {
			t.Errorf("LowestLevelFor(%g) = %d, LowestLevelFor(math.Min(%g, 1)) = %d", u, got, u, want)
		}
	}
}

func TestDVFSValidate(t *testing.T) {
	bad := DVFSTable{Freq: []float64{1.0, 1.0}, Volt: []float64{1, 1}}
	if err := bad.Validate(); err == nil {
		t.Error("non-descending frequencies accepted")
	}
	bad = DVFSTable{Freq: []float64{1.0}, Volt: []float64{}}
	if err := bad.Validate(); err == nil {
		t.Error("mismatched lengths accepted")
	}
	bad = DVFSTable{Freq: []float64{1.5}, Volt: []float64{1}}
	if err := bad.Validate(); err == nil {
		t.Error("frequency above 1 accepted")
	}
}

// corePowerW is the switching power of EXP-1's first core with every
// core in state st at level l and utilization util: its block power
// with leakage off.
func corePowerW(t *testing.T, st CoreState, l VfLevel, util float64) float64 {
	t.Helper()
	s := floorplan.MustBuild(floorplan.EXP1)
	m := DefaultModel()
	m.LeakageEnabled = false
	return compute(t, m, s, chipInput(s.NumCores(), st, l, util))[s.BlockIndex(s.Cores()[0])]
}

func TestCorePowerStates(t *testing.T) {
	if got := corePowerW(t, StateActive, 0, 1); got != 3.0 {
		t.Errorf("fully active core = %g W, paper says 3 W", got)
	}
	if got := corePowerW(t, StateSleep, 0, 1); got != 0.02 {
		t.Errorf("sleeping core = %g W, paper says 0.02 W", got)
	}
	if got := corePowerW(t, StateGated, 0, 1); got != 0 {
		t.Errorf("gated core switching power = %g W, want 0", got)
	}
	idle := corePowerW(t, StateIdle, 0, 0)
	act := corePowerW(t, StateActive, 0, 0.5)
	if !(idle < act && act < 3.0) {
		t.Errorf("expected idle (%g) < half-util (%g) < 3", idle, act)
	}
}

func TestCorePowerDVFSReduces(t *testing.T) {
	p0 := corePowerW(t, StateActive, 0, 1)
	p1 := corePowerW(t, StateActive, 1, 1)
	p2 := corePowerW(t, StateActive, 2, 1)
	if !(p2 < p1 && p1 < p0) {
		t.Errorf("power must decrease with level: %g, %g, %g", p0, p1, p2)
	}
	if math.Abs(p2/p0-0.85*0.85*0.85) > 1e-9 {
		t.Errorf("slowest level power ratio %g, want f·V² = %g", p2/p0, 0.85*0.85*0.85)
	}
}

func TestLeakageCalibration(t *testing.T) {
	l := DefaultLeakage()
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// At the 383 K reference the uncapped density must be exactly
	// 0.5 W/mm² ([5]); the default model saturates at the 85 °C value.
	uncapped := l
	uncapped.GCap = 1.0
	if got := uncapped.BaseDensityWPerMM2 * uncapped.TempFactor(383-273.15); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("uncapped leakage density at 383 K = %g, want 0.5", got)
	}
	if got := l.TempFactor(120); math.Abs(got-l.GCap) > 1e-9 {
		t.Errorf("capped TempFactor(120 °C) = %g, want saturation value %g", got, l.GCap)
	}
	// Normalized shape of [25]: ~25% of the reference value at 85 °C and
	// ~10% at 70 °C (exponential subthreshold dependence).
	if g := l.TempFactor(85); math.Abs(g-0.25) > 0.02 {
		t.Errorf("TempFactor(85 °C) = %g, want ~0.25", g)
	}
	if g := l.TempFactor(70); math.Abs(g-0.10) > 0.02 {
		t.Errorf("TempFactor(70 °C) = %g, want ~0.10", g)
	}
}

// TestDefaultGCapCalibration pins the saturation constant to its
// documented calibration point: DefaultLeakage caps the temperature
// factor at g(85 °C) — the paper's emergency threshold, the hottest
// point the managed system is meant to reach. The GCap field comment
// used to claim the 90 °C value (g(90 °C) ≈ 0.353) while the constant
// was 0.25 ≈ g(85 °C); this test keeps doc and constant reconciled.
func TestDefaultGCapCalibration(t *testing.T) {
	l := DefaultLeakage()
	// The uncapped quadratic at the calibration temperature.
	dt := (85 + 273.15) - l.TRefK
	raw := 1 + l.C1*dt + l.C2*dt*dt
	if math.Abs(raw-l.GCap)/raw > 0.015 {
		t.Errorf("GCap = %g, but uncapped g(85 °C) = %.6f: constant no longer matches its calibration point", l.GCap, raw)
	}
	// And it must NOT match the 90 °C value the old comment claimed.
	dt90 := (90 + 273.15) - l.TRefK
	raw90 := 1 + l.C1*dt90 + l.C2*dt90*dt90
	if math.Abs(raw90-l.GCap)/raw90 < 0.015 {
		t.Errorf("GCap = %g unexpectedly matches g(90 °C) = %.6f", l.GCap, raw90)
	}
	// TempFactor saturates exactly at GCap from the cap temperature up.
	if got := l.TempFactor(85.5); math.Abs(got-l.GCap) > 1e-12 {
		t.Errorf("TempFactor just above the cap point = %g, want GCap %g", got, l.GCap)
	}
}

func TestLeakageMonotoneInTemperature(t *testing.T) {
	l := DefaultLeakage()
	f := func(a, b uint8) bool {
		t1 := 20 + float64(a%90)
		t2 := 20 + float64(b%90)
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		return l.TempFactor(t1) <= l.TempFactor(t2)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestLeakageVoltageQuadratic reads a core's leakage off ComputeInto as
// the difference between leakage on and off: it scales with V² across
// V/f levels, and a block without area leaks nothing.
func TestLeakageVoltageQuadratic(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP1)
	core := s.BlockIndex(s.Cores()[0])
	leakAt := func(lvl VfLevel) float64 {
		m := DefaultModel()
		in := chipInput(8, StateActive, lvl, 1)
		in.AmbientC = 70
		on := compute(t, m, s, in)
		m.LeakageEnabled = false
		return on[core] - compute(t, m, s, in)[core]
	}
	full, reduced := leakAt(0), leakAt(2)
	if math.Abs(reduced/full-0.85*0.85) > 1e-9 {
		t.Errorf("voltage scaling ratio %g, want V² = %g", reduced/full, 0.85*0.85)
	}
	l2 := s.BlockIndex(s.L2s()[0])
	s.Blocks()[l2].Rect.W = 0
	in := chipInput(8, StateActive, 0, 1)
	in.AmbientC = 70
	m := DefaultModel()
	on := compute(t, m, s, in)
	m.LeakageEnabled = false
	if off := compute(t, m, s, in); on[l2] != off[l2] {
		t.Errorf("zero-area block leaks %g W", on[l2]-off[l2])
	}
}

func TestLeakageFloor(t *testing.T) {
	l := DefaultLeakage()
	if g := l.TempFactor(-200); g < 0.02-1e-12 {
		t.Errorf("TempFactor floor violated: %g", g)
	}
}

func TestCachePower(t *testing.T) {
	c := DefaultCacheParams()
	if got := c.Power(1); math.Abs(got-1.28) > 1e-12 {
		t.Errorf("fully active L2 = %g W, paper says 1.28 W", got)
	}
	if c.Power(0) >= c.Power(1) {
		t.Error("idle cache should draw less than active")
	}
	if c.Power(-1) != c.Power(0) || c.Power(2) != c.Power(1) {
		t.Error("activity should clamp to [0,1]")
	}
}

func TestCrossbarPowerScalesWithActivity(t *testing.T) {
	x := DefaultCrossbarParams()
	idle := x.Power(0, 0)
	busy := x.Power(1, 1)
	half := x.Power(0.5, 0.5)
	if !(idle < half && half < busy) {
		t.Errorf("crossbar power not monotone: %g, %g, %g", idle, half, busy)
	}
	if math.Abs(busy-x.MaxW) > 1e-12 {
		t.Errorf("peak crossbar = %g, want MaxW=%g", busy, x.MaxW)
	}
}

// compute returns ComputeInto's vector for in, failing t on error.
func compute(t *testing.T, m Model, s *floorplan.Stack, in ChipInput) []float64 {
	t.Helper()
	pv := make([]float64, s.NumBlocks())
	if err := m.ComputeInto(pv, s, in); err != nil {
		t.Fatal(err)
	}
	return pv
}

func chipInput(n int, st CoreState, lvl VfLevel, util float64) ChipInput {
	cores := make([]CoreInput, n)
	for i := range cores {
		cores[i] = CoreInput{State: st, Level: lvl, Util: util, MemActivity: 0.3}
	}
	return ChipInput{Cores: cores, AmbientC: 45}
}

func TestComputeBlockVector(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP1)
	m := DefaultModel()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	pv := compute(t, m, s, chipInput(8, StateActive, 0, 1))
	for i, p := range pv {
		if p < 0 {
			t.Errorf("block %d has negative power %g", i, p)
		}
	}
	// A fully busy chip should draw meaningfully more than an idle one.
	idle := compute(t, m, s, chipInput(8, StateIdle, 0, 0))
	if Total(pv) <= Total(idle) {
		t.Errorf("busy total %g W <= idle total %g W", Total(pv), Total(idle))
	}
}

func TestComputeLeakageFeedback(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP1)
	m := DefaultModel()
	in := chipInput(8, StateActive, 0, 1)
	cold := compute(t, m, s, in)
	hot := make([]float64, s.NumBlocks())
	for i := range hot {
		hot[i] = 90
	}
	in.BlockTempsC = hot
	hotP := compute(t, m, s, in)
	if Total(hotP) <= Total(cold) {
		t.Errorf("hot chip should leak more: %g W vs %g W", Total(hotP), Total(cold))
	}
}

func TestComputeLeakageDisabled(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP1)
	m := DefaultModel()
	m.LeakageEnabled = false
	in := chipInput(8, StateSleep, 0, 0)
	pv := compute(t, m, s, in)
	// With leakage off and all cores asleep, core blocks draw exactly
	// the sleep power.
	for _, c := range s.Cores() {
		if got := pv[s.BlockIndex(c)]; got != 0.02 {
			t.Errorf("sleeping core draws %g W, want 0.02", got)
		}
	}
}

func TestComputeValidation(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP1)
	m := DefaultModel()
	pv := make([]float64, s.NumBlocks())
	if err := m.ComputeInto(pv, s, chipInput(3, StateActive, 0, 1)); err == nil {
		t.Error("wrong core count accepted")
	}
	in := chipInput(8, StateActive, 0, 1)
	if err := m.ComputeInto(pv[:3], s, in); err == nil {
		t.Error("wrong destination length accepted")
	}
	in.BlockTempsC = []float64{1, 2}
	if err := m.ComputeInto(pv, s, in); err == nil {
		t.Error("wrong block temp count accepted")
	}
}

func TestModelValidate(t *testing.T) {
	m := DefaultModel()
	m.Core.IdleW = 10
	if err := m.Validate(); err == nil {
		t.Error("idle > active accepted")
	}
	m = DefaultModel()
	m.OtherW = -1
	if err := m.Validate(); err == nil {
		t.Error("negative other power accepted")
	}
}

func TestEnergyMeter(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP1)
	m := DefaultModel()
	pv := compute(t, m, s, chipInput(8, StateActive, 0, 1))
	e := NewEnergyMeter()
	if err := e.Accumulate(s, pv, 0.1); err != nil {
		t.Fatal(err)
	}
	if err := e.Accumulate(s, pv, 0.1); err != nil {
		t.Fatal(err)
	}
	wantJ := Total(pv) * 0.2
	if math.Abs(e.TotalJ()-wantJ) > 1e-9 {
		t.Errorf("TotalJ = %g, want %g", e.TotalJ(), wantJ)
	}
	if math.Abs(e.AveragePowerW()-Total(pv)) > 1e-9 {
		t.Errorf("AveragePowerW = %g, want %g", e.AveragePowerW(), Total(pv))
	}
	// Average power divides by the elapsed time: exactly 0.1 + 0.1.
	if got, want := e.AveragePowerW(), e.TotalJ()/0.2; got != want {
		t.Errorf("AveragePowerW = %g, want TotalJ/0.2 = %g", got, want)
	}
}

func TestEnergyMeterValidation(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP1)
	e := NewEnergyMeter()
	if err := e.Accumulate(s, []float64{1}, 0.1); err == nil {
		t.Error("wrong vector length accepted")
	}
	pv := make([]float64, s.NumBlocks())
	if err := e.Accumulate(s, pv, 0); err == nil {
		t.Error("zero dt accepted")
	}
}

func TestCoreStateString(t *testing.T) {
	if StateActive.String() != "active" || StateSleep.String() != "sleep" ||
		StateGated.String() != "gated" || StateIdle.String() != "idle" {
		t.Error("CoreState.String unexpected")
	}
}
