package reliability

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestStreamMatchesBatchRainflow cross-validates the streaming damage
// accumulator against the batch rainflow counter plus Miner's-rule
// accounting on random walks: same samples in, same damage out.
func TestStreamMatchesBatchRainflow(t *testing.T) {
	model := DefaultCycling()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		var s Stream
		s.Init(model)
		rf := NewRainflow()
		temp := 60.0
		n := 50 + rng.Intn(2000)
		for i := 0; i < n; i++ {
			temp += rng.NormFloat64() * 3
			s.Push(temp)
			rf.Push(temp)
		}
		want := model.Damage(rf.FullCycles(), rf.ResidualHalfCycles())
		got := s.Damage()
		if d := math.Abs(got - want); d > 1e-9*(1+want) {
			t.Fatalf("trial %d: stream damage %.12g, batch rainflow %.12g (|Δ|=%g)", trial, got, want, d)
		}
		if s.Cycles() != len(rf.FullCycles()) {
			t.Fatalf("trial %d: stream closed %d cycles, batch %d", trial, s.Cycles(), len(rf.FullCycles()))
		}
	}
}

// TestStreamKnownCensus checks a hand-computable signal: one 20 °C
// reference cycle must contribute exactly 1.0 of closed damage.
func TestStreamKnownCensus(t *testing.T) {
	var s Stream
	s.Init(DefaultCycling())
	// 60 -> 80 -> 60 -> 80: the inner 80-60-80 swing closes one full
	// 20 °C cycle (damage 1.0); the rest is residue.
	for _, v := range []float64{60, 80, 60, 80} {
		s.Push(v)
	}
	if s.Cycles() != 1 {
		t.Fatalf("closed %d cycles, want 1", s.Cycles())
	}
	if d := s.closedDamage; math.Abs(d-1) > 1e-12 {
		t.Fatalf("closed damage %.12g, want 1", d)
	}
	// Residue 60->80 is one half cycle at reference amplitude: +0.5.
	if d := s.Damage(); math.Abs(d-1.5) > 1e-12 {
		t.Fatalf("total damage %.12g, want 1.5", d)
	}
}

// TestRainflowASTME1049Example checks both rainflow counters against
// ground truth: the worked rainflow example of ASTM E1049-85 (load
// peaks and valleys -2, 1, -3, 5, -1, 3, -4, 4, -2), whose census is
// range 3 x 1/2, 4 x 1 1/2, 6 x 1/2, 8 x 1 and 9 x 1/2. The counters
// close one full cycle of range 4 and leave the half cycles 3, 4, 8,
// 9, 8, 6 as residue; with a linear damage model (exponent 1, unit
// reference) the Miner's sum is 4 + 38/2 = 23. Sampling the same
// history densely, with linear steps between the turning points, must
// not change the census.
func TestRainflowASTME1049Example(t *testing.T) {
	peaks := []float64{-2, 1, -3, 5, -1, 3, -4, 4, -2}
	dense := []float64{peaks[0]}
	for i := 1; i < len(peaks); i++ {
		step := 0.25
		if peaks[i] < peaks[i-1] {
			step = -step
		}
		for v := peaks[i-1] + step; v != peaks[i]; v += step {
			dense = append(dense, v)
		}
		dense = append(dense, peaks[i])
	}
	astm := map[float64]float64{3: 0.5, 4: 1.5, 6: 0.5, 8: 1, 9: 0.5}
	model := CyclingModel{Exponent: 1, RefDeltaC: 1}
	for name, samples := range map[string][]float64{"peaks": peaks, "dense": dense} {
		rf := NewRainflow()
		var s Stream
		s.Init(model)
		for _, v := range samples {
			rf.Push(v)
			s.Push(v)
		}
		full, half := rf.FullCycles(), rf.ResidualHalfCycles()
		if !reflect.DeepEqual(full, []float64{4}) || !reflect.DeepEqual(half, []float64{3, 4, 8, 9, 8, 6}) {
			t.Fatalf("%s: rainflow counted full %v and residue %v, want [4] and [3 4 8 9 8 6]", name, full, half)
		}
		census := map[float64]float64{}
		for _, r := range full {
			census[r]++
		}
		for _, r := range half {
			census[r] += 0.5
		}
		if !reflect.DeepEqual(census, astm) {
			t.Fatalf("%s: census %v, want ASTM's %v", name, census, astm)
		}
		if s.Cycles() != 1 {
			t.Fatalf("%s: stream closed %d cycles, want 1", name, s.Cycles())
		}
		if d := s.Damage(); d != 23 {
			t.Fatalf("%s: stream damage %v, want 23", name, d)
		}
		if d := model.Damage(full, half); d != 23 {
			t.Fatalf("%s: batch damage %v, want 23", name, d)
		}
	}
}

// refDamage is Stream.Damage without the residue cache: every call
// re-walks the whole turning-point stack.
func refDamage(s *Stream) float64 {
	d := s.closedDamage
	prev := math.NaN()
	for i := 0; i < s.n; i++ {
		if i > 0 {
			if amp := math.Abs(s.pts[i] - prev); amp > 0 {
				d += s.model.CycleDamage(amp) / 2
			}
		}
		prev = s.pts[i]
	}
	if s.started && s.n > 0 {
		if amp := math.Abs(s.last - prev); amp > 0 {
			d += s.model.CycleDamage(amp) / 2
		}
	}
	return d
}

// TestStreamDamageMatchesUncachedLoop checks every cached Damage result
// bit for bit against refDamage, polled at irregular intervals (often
// twice with no Push between) on three signals: a random walk, a
// quantized one full of plateaus, and widening swings that overflow
// streamCap before a narrower stretch collapses them. Tracker copies
// out and back (how a checkpoint is taken and restored), and a re-Init
// of every stream (how rollout lanes reset), land between pushes.
func TestStreamDamageMatchesUncachedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	tr, err := NewTracker(3, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	saved, err := NewTracker(3, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	haveSaved := false
	check := func(step int) {
		t.Helper()
		for i := range tr.streams {
			want := refDamage(&tr.streams[i])
			if got := tr.streams[i].Damage(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d signal %d: Damage %.17g, uncached loop %.17g", step, i, got, want)
			}
		}
	}
	temps := []float64{60, 60, 0}
	overflowed := false
	for step := 0; step < 30000; step++ {
		temps[0] += rng.NormFloat64() * 3
		temps[1] = math.Round(60 + 8*rng.NormFloat64())
		k := step % 500
		amp := float64(k)
		if k >= 3*streamCap {
			amp = float64(k % 7)
		}
		if k%2 == 1 {
			amp = -amp
		}
		temps[2] = amp
		if err := tr.Observe(temps); err != nil {
			t.Fatal(err)
		}
		if tr.streams[2].n == streamCap {
			overflowed = true
		}
		switch r := rng.Intn(10); {
		case r < 2:
			check(step)
			check(step)
		case r < 5:
			check(step)
		}
		switch rng.Intn(300) {
		case 0:
			if err := saved.CopyFrom(tr); err != nil {
				t.Fatal(err)
			}
			haveSaved = true
		case 1:
			if haveSaved {
				if err := tr.CopyFrom(saved); err != nil {
					t.Fatal(err)
				}
				if got, want := tr.Report(), saved.Report(); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: copied tracker reports %+v, its source %+v", step, got, want)
				}
				check(step)
			}
		case 2:
			for i := range tr.streams {
				tr.streams[i].Init(tr.Cycling)
			}
			check(step)
		}
	}
	if !overflowed {
		t.Fatal("the widening signal never filled the turning-point stack")
	}
}

// TestStreamPushAllocationFree pins the property the simulator's tick
// loop depends on: feeding samples (and polling Damage) allocates
// nothing once the Stream exists.
func TestStreamPushAllocationFree(t *testing.T) {
	var s Stream
	s.Init(DefaultCycling())
	temp, step := 60.0, 7.0
	avg := testing.AllocsPerRun(500, func() {
		temp += step
		if temp > 90 || temp < 55 {
			step = -step
		}
		s.Push(temp)
		_ = s.Damage()
	})
	if avg != 0 {
		t.Fatalf("Stream.Push+Damage averages %.2f allocs, want 0", avg)
	}
}

// TestStreamOverflowRetiresOldest drives a strictly widening reversal
// sequence past the stack capacity and checks damage is retired, not
// dropped or panicked on.
func TestStreamOverflowRetiresOldest(t *testing.T) {
	var s Stream
	s.Init(DefaultCycling())
	// Widening swings around 0: ±1, ±2, ±3, ... never close a cycle
	// under the 4-point rule, so the turning stack only grows.
	for i := 1; i < 3*streamCap; i++ {
		v := float64(i)
		if i%2 == 0 {
			v = -v
		}
		s.Push(v)
	}
	if s.Damage() <= 0 {
		t.Fatal("overflowed stream lost all damage")
	}
}

// TestTrackerReport runs a two-signal tracker and checks the report's
// per-block wear (a swinging signal closes cycles and a flat one none;
// the hotter signal wears faster), aggregates, and metadata plumbing.
func TestTrackerReport(t *testing.T) {
	tr, err := NewTracker(2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SetMeta([]string{"core0", "l2_0"}, []int{1, 0}); err != nil {
		t.Fatal(err)
	}
	// Signal 0 swings hard (damaging); signal 1 stays flat and cool.
	for i := 0; i < 400; i++ {
		a := 70.0
		if i%20 < 10 {
			a = 95
		}
		if err := tr.Observe([]float64{a, 50}); err != nil {
			t.Fatal(err)
		}
	}
	rep := tr.Report()
	if rep.Samples != 400 {
		t.Fatalf("samples %d, want 400", rep.Samples)
	}
	if rep.WorstBlock != 0 || rep.Worst().Name != "core0" {
		t.Fatalf("worst block %d (%q), want 0 (core0)", rep.WorstBlock, rep.Worst().Name)
	}
	if rep.Blocks[0].CycleDamage <= rep.Blocks[1].CycleDamage {
		t.Fatalf("swinging signal damage %.3g not above flat signal %.3g",
			rep.Blocks[0].CycleDamage, rep.Blocks[1].CycleDamage)
	}
	if rep.Blocks[0].Cycles == 0 {
		t.Fatal("swinging signal closed no cycles")
	}
	if rep.Blocks[1].Cycles != 0 || rep.Blocks[1].CycleDamage != 0 {
		t.Fatalf("flat signal closed %d cycles (damage %.3g), want none", rep.Blocks[1].Cycles, rep.Blocks[1].CycleDamage)
	}
	if rep.Blocks[0].EMFactor <= rep.Blocks[1].EMFactor {
		t.Fatal("hotter signal should carry the higher EM factor")
	}
	if rep.Blocks[0].MaxTempC != 95 || rep.Blocks[1].MaxTempC != 50 {
		t.Fatalf("max temps %.1f/%.1f, want 95/50", rep.Blocks[0].MaxTempC, rep.Blocks[1].MaxTempC)
	}
	if len(rep.LayerDamage) != 2 {
		t.Fatalf("layer damage has %d entries, want 2", len(rep.LayerDamage))
	}
	if rep.LayerDamage[1] != rep.Blocks[0].CycleDamage || rep.LayerDamage[0] != rep.Blocks[1].CycleDamage {
		t.Fatal("layer damage does not match per-block damage")
	}
	if math.Abs(rep.TotalCycleDamage-(rep.Blocks[0].CycleDamage+rep.Blocks[1].CycleDamage)) > 1e-12 {
		t.Fatal("total damage is not the per-block sum")
	}
	if rep.RelMTTF <= 0 || math.IsInf(rep.RelMTTF, 0) {
		t.Fatalf("RelMTTF %.3g out of range", rep.RelMTTF)
	}
	// The stressed device must be rated worse than an unstressed one.
	cool, err := NewTracker(1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if err := cool.Observe([]float64{50}); err != nil {
			t.Fatal(err)
		}
	}
	if coolRep := cool.Report(); coolRep.RelMTTF <= rep.RelMTTF {
		t.Fatalf("cool device RelMTTF %.3g not above stressed %.3g", coolRep.RelMTTF, rep.RelMTTF)
	}
}

// TestTrackerObserveAllocationFree pins Observe at zero allocations —
// the contract that lets the simulation engine call it every tick.
func TestTrackerObserveAllocationFree(t *testing.T) {
	tr, err := NewTracker(16, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	temps := make([]float64, 16)
	tick := 0
	avg := testing.AllocsPerRun(500, func() {
		for i := range temps {
			temps[i] = 70 + 15*math.Sin(float64(tick+i)/7)
		}
		tick++
		if err := tr.Observe(temps); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("Observe averages %.2f allocs, want 0", avg)
	}
}

// TestTrackerHonoursSwappedCyclingModel pins the documented contract
// that wear models may be replaced between NewTracker and the first
// Observe: a doubled reference amplitude must change the accumulated
// damage (the streams re-seat their captured model lazily).
func TestTrackerHonoursSwappedCyclingModel(t *testing.T) {
	run := func(m CyclingModel) float64 {
		tr, err := NewTracker(1, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		tr.Cycling = m
		for i := 0; i < 100; i++ {
			v := 60.0
			if i%2 == 0 {
				v = 80
			}
			if err := tr.Observe([]float64{v}); err != nil {
				t.Fatal(err)
			}
		}
		return tr.Report().TotalCycleDamage
	}
	def := run(DefaultCycling())
	soft := run(CyclingModel{Exponent: 4, RefDeltaC: 40})
	if def <= 0 || soft <= 0 {
		t.Fatalf("damage not accumulated (default %.3g, soft %.3g)", def, soft)
	}
	// 20 °C swings against a 40 °C reference are (1/2)^4 the damage.
	if ratio := soft / def; math.Abs(ratio-1.0/16) > 1e-9 {
		t.Fatalf("swapped model ignored: damage ratio %.6g, want 1/16", ratio)
	}
}

// TestTrackerValidation covers the constructor and metadata error paths.
func TestTrackerValidation(t *testing.T) {
	if _, err := NewTracker(0, 0.1); err == nil {
		t.Error("NewTracker(0, ...) should fail")
	}
	if _, err := NewTracker(4, 0); err == nil {
		t.Error("NewTracker(_, 0) should fail")
	}
	tr, err := NewTracker(2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SetMeta([]string{"just-one"}, nil); err == nil {
		t.Error("SetMeta with wrong name count should fail")
	}
	if err := tr.SetMeta(nil, []int{0}); err == nil {
		t.Error("SetMeta with wrong layer count should fail")
	}
	if err := tr.Observe([]float64{1, 2, 3}); err == nil {
		t.Error("Observe with wrong width should fail")
	}
}
