package power

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/floorplan"
)

// refComputeInto is the per-block power computation as it stood before
// the chip-wide L2/crossbar powers and the leakage curve's constants
// were hoisted out of the block loop: every block re-derives them, the
// clamps are math.Min/math.Max calls, and leakage goes through
// refBlockLeakage and refTempFactor. FuzzComputeInto holds ComputeInto
// to it bit for bit.
func refComputeInto(m Model, dst []float64, stack *floorplan.Stack, in ChipInput) error {
	if len(in.Cores) != stack.NumCores() {
		return fmt.Errorf("power: got %d core inputs for %d cores", len(in.Cores), stack.NumCores())
	}
	if in.BlockTempsC != nil && len(in.BlockTempsC) != stack.NumBlocks() {
		return fmt.Errorf("power: got %d block temperatures for %d blocks", len(in.BlockTempsC), stack.NumBlocks())
	}
	if len(dst) != stack.NumBlocks() {
		return fmt.Errorf("power: destination has %d entries for %d blocks", len(dst), stack.NumBlocks())
	}

	// Chip-wide activity summaries.
	activeCores := 0
	memTraffic := 0.0
	for _, c := range in.Cores {
		if c.State == StateActive {
			activeCores++
		}
		memTraffic += c.MemActivity * c.Util
	}
	activeFrac := float64(activeCores) / float64(len(in.Cores))
	memTraffic = math.Min(memTraffic/float64(len(in.Cores))*2, 1) // saturating

	for bi, b := range stack.Blocks() {
		var p float64
		var volt float64 = 1
		switch b.Kind {
		case floorplan.KindCore:
			ci := in.Cores[b.CoreID]
			p = refCorePower(m.Core, m.DVFS, ci.State, ci.Level, ci.Util) * b.PowerScale
			volt = m.DVFS.VoltScale(ci.Level)
			if ci.State == StateSleep {
				volt = 0.3 // power-gated rail retains only a keeper voltage
			}
		case floorplan.KindL2:
			p = refCachePower(m.Cache, memTraffic)
		case floorplan.KindCrossbar:
			p = refXbarPower(m.Xbar, activeFrac, memTraffic)
		case floorplan.KindOther:
			if onMemoryLayer(stack, b) {
				p = m.MemOtherW
			} else {
				p = m.OtherW
			}
		}
		if m.LeakageEnabled {
			temp := in.AmbientC
			if in.BlockTempsC != nil {
				temp = in.BlockTempsC[bi]
			}
			p += refBlockLeakage(m.Leak, b.Area(), temp, volt) * leakDensityFactor(b.Kind)
		}
		dst[bi] = p
	}
	return nil
}

func refCorePower(c CoreParams, t DVFSTable, st CoreState, l VfLevel, util float64) float64 {
	util = math.Min(math.Max(util, 0), 1)
	switch st {
	case StateSleep:
		return c.SleepW
	case StateGated:
		return 0 // clock gated: no switching power at all
	case StateIdle:
		return c.IdleW * t.PowerScale(l)
	default:
		return (util*c.ActiveW + (1-util)*c.IdleW) * t.PowerScale(l)
	}
}

func refCachePower(c CacheParams, activity float64) float64 {
	a := math.Min(math.Max(activity, 0), 1)
	return c.MaxW * (c.IdleFrac + (1-c.IdleFrac)*a)
}

func refXbarPower(c CrossbarParams, activeFrac, memTraffic float64) float64 {
	a := math.Min(math.Max(activeFrac, 0), 1)
	mt := math.Min(math.Max(memTraffic, 0), 1)
	activity := 0.5*a + 0.5*mt
	return c.MaxW * (c.IdleFrac + (1-c.IdleFrac)*activity)
}

func refBlockLeakage(m LeakageModel, areaMM2, tempC, voltRel float64) float64 {
	if areaMM2 <= 0 {
		return 0
	}
	return m.BaseDensityWPerMM2 * areaMM2 * refTempFactor(m, tempC) * voltRel * voltRel
}

func refTempFactor(m LeakageModel, tempC float64) float64 {
	dt := (tempC + 273.15) - m.TRefK
	if m.C2 > 0 {
		if vertex := -m.C1 / (2 * m.C2); dt < vertex {
			dt = vertex
		}
	}
	g := 1 + m.C1*dt + m.C2*dt*dt
	if g < 0.02 {
		return 0.02
	}
	cap := m.GCap
	if cap <= 0 {
		cap = 1.0
	}
	if g > cap {
		return cap
	}
	return g
}

// bigLittle is scenarios/big-little.json: its top tier's cores have
// PowerScale 0.45.
const bigLittle = `{"name": "big-little", "tsvs_per_interface": 1024, "layers": [
	{"template": "memory"},
	{"template": "cores"},
	{"template": "cores", "freq_scale": 0.7, "power_scale": 0.45}]}`

// oracleStacks returns EXP-1…6 and the big-little spec stack.
func oracleStacks(tb testing.TB) []*floorplan.Stack {
	var stacks []*floorplan.Stack
	for _, e := range floorplan.ExtendedExperiments() {
		stacks = append(stacks, floorplan.MustBuild(e))
	}
	spec, err := floorplan.ParseStackSpec([]byte(bigLittle))
	if err != nil {
		tb.Fatal(err)
	}
	s, err := spec.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return append(stacks, s)
}

// firstAtOrAbove returns the smallest float64 in [lo, hi] (both
// positive) for which above holds, given that above is false at lo and
// true at hi and flips once in between.
func firstAtOrAbove(lo, hi float64, above func(float64) bool) float64 {
	a, b := math.Float64bits(lo), math.Float64bits(hi)
	for b-a > 1 {
		mid := a + (b-a)/2
		if above(math.Float64frombits(mid)) {
			b = mid
		} else {
			a = mid
		}
	}
	return math.Float64frombits(b)
}

// oracleTemps are temperatures (°C) at and one ulp either side of the
// default leakage curve's two kinks: where the vertex floor releases
// (67.35 °C) and where the cap takes over (nominally 85 °C; the
// polynomial reaches GCap just below it).
func oracleTemps() []float64 {
	l := DefaultLeakage()
	vertex := -l.C1 / (2 * l.C2)
	atVertex := firstAtOrAbove(60, 70, func(t float64) bool { return (t+273.15)-l.TRefK >= vertex })
	atCap := firstAtOrAbove(80, 90, func(t float64) bool {
		dt := (t + 273.15) - l.TRefK
		return 1+l.C1*dt+l.C2*dt*dt >= l.GCap
	})
	var temps []float64
	for _, t := range []float64{67.35, atVertex, 85, atCap} {
		temps = append(temps, math.Nextafter(t, math.Inf(-1)), t, math.Nextafter(t, math.Inf(1)))
	}
	return temps
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// FuzzComputeInto holds Plan.ComputeInto and Model.ComputeInto to
// refComputeInto bit for bit (any NaN equals any NaN) over every
// builtin stack plus a PowerScale ≠ 1 spec stack, leakage on and off,
// temperatures given and ambient-only, every core state including an
// out-of-range one, out-of-range V/f levels, ±0/subnormal/±Inf/NaN
// inputs, temperatures at the leakage curve's kinks, and leakage models
// without a vertex or a cap. Each input compiles one plan and runs
// three chip inputs through it, the first again after a different
// second, so a plan that kept state from one call to the next fails.
func FuzzComputeInto(f *testing.F) {
	stacks := oracleStacks(f)
	specials := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
		1, 0.5, 1.5, -0.25,
	}
	temps := append(oracleTemps(), 45, 20, -300, 1e6)
	for i := range stacks {
		f.Add(uint8(i), uint8(0), []byte{0, 1, 2, 3, 4, 5, 6, 7}, 0.7, 0.3, 70.0)
		f.Add(uint8(i), uint8(2), []byte{200, 17, 34, 51, 68, 85, 102, 119, 136, 153, 170, 187}, 0.2, 0.9, 67.35)
		f.Add(uint8(i), uint8(3), []byte{255, 254, 253, 9, 10, 11}, 1.0, 0.0, 85.0)
	}
	f.Add(uint8(0), uint8(4), []byte{7, 3, 250}, 0.4, 0.4, 90.0)
	f.Add(uint8(1), uint8(4|8), []byte{7, 3, 250}, 0.4, 0.4, 90.0)
	f.Add(uint8(6), uint8(16), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, math.NaN(), math.Inf(1), math.Inf(-1))
	f.Fuzz(func(t *testing.T, which, flags uint8, pattern []byte, util, mem, temp float64) {
		if len(pattern) == 0 {
			pattern = []byte{0}
		}
		s := stacks[int(which)%len(stacks)]
		m := DefaultModel()
		m.LeakageEnabled = flags&1 == 0
		if flags&4 != 0 {
			m.Leak.GCap = 0
		}
		if flags&8 != 0 {
			m.Leak.C2 = -m.Leak.C2
		}
		if flags&16 != 0 {
			m.Leak.C2 = 0
		}
		// input reads the pattern from offset shift, so two shifts give
		// two different chip inputs.
		input := func(shift int, util, mem float64, withTemps bool) ChipInput {
			at := func(i int) int { return int(pattern[(i+shift)%len(pattern)]) }
			pick := func(i int, x float64, table []float64) float64 {
				if k := at(i) % (2 * len(table)); k < len(table) {
					return table[k]
				}
				return x
			}
			in := ChipInput{Cores: make([]CoreInput, s.NumCores()), AmbientC: pick(1, temp, temps)}
			for c := range in.Cores {
				in.Cores[c] = CoreInput{
					State:       CoreState(at(4*c)%6 - 1),
					Level:       VfLevel(at(4*c+1)%7 - 2),
					Util:        pick(4*c+2, util, specials),
					MemActivity: pick(4*c+3, mem, specials),
				}
			}
			if withTemps {
				in.BlockTempsC = make([]float64, s.NumBlocks())
				for b := range in.BlockTempsC {
					in.BlockTempsC[b] = pick(b+5, temp+float64(b), temps)
				}
			}
			return in
		}
		first := input(0, util, mem, flags&2 != 0)
		second := input(1, mem, util, flags&2 == 0)
		check := func(what string, got []float64, in ChipInput) {
			t.Helper()
			want := make([]float64, s.NumBlocks())
			if err := refComputeInto(m, want, s, in); err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("%s %s block %d (%s): %g (%#x), reference %g (%#x)",
						s.Name, what, i, s.Blocks()[i].Name, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
		got := make([]float64, s.NumBlocks())
		if err := m.ComputeInto(got, s, first); err != nil {
			t.Fatal(err)
		}
		check("Model.ComputeInto", got, first)
		plan := m.Plan(s)
		for k, in := range []ChipInput{first, second, first} {
			if err := plan.ComputeInto(got, in); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("Plan.ComputeInto call %d", k+1), got, in)
		}
		if g, w := m.Leak.TempFactor(temp), refTempFactor(m.Leak, temp); !sameBits(g, w) {
			t.Fatalf("TempFactor(%g) = %g (%#x), reference %g (%#x)", temp, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	})
}

// BenchmarkComputeInto times one tick's power vector on EXP-1 (16
// blocks) and EXP-3 (32 blocks) with the leakage loop on, through a
// plan compiled before the timed loop, as the engine compiles one per
// run.
func BenchmarkComputeInto(b *testing.B) {
	for _, e := range []floorplan.Experiment{floorplan.EXP1, floorplan.EXP3} {
		s := floorplan.MustBuild(e)
		m := DefaultModel()
		in := ChipInput{Cores: make([]CoreInput, s.NumCores()), BlockTempsC: make([]float64, s.NumBlocks()), AmbientC: 45}
		for c := range in.Cores {
			in.Cores[c] = CoreInput{State: CoreState(c % 4), Level: VfLevel(c % 3), Util: 0.6, MemActivity: 0.3}
		}
		for i := range in.BlockTempsC {
			in.BlockTempsC[i] = 60 + float64(i%25)
		}
		dst := make([]float64, s.NumBlocks())
		plan := m.Plan(s)
		b.Run(fmt.Sprintf("EXP%d", e), func(b *testing.B) {
			for b.Loop() {
				if err := plan.ComputeInto(dst, in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
