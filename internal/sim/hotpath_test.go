package sim

import (
	"io"
	"slices"
	"strconv"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/policy"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// TestTickCountLostTickRegression pins the fix for the truncated-duration
// bug: nTicks was computed as int(DurationS/TickS), and float division of
// durations that are exact multiples of the tick can land just below the
// integer (0.3/0.1 = 2.9999999999999996), silently dropping the final
// tick of any sweep whose duration is not exactly representable in the
// paper's 100 ms sampling scheme.
func TestTickCountLostTickRegression(t *testing.T) {
	cases := []struct {
		durationS, tickS float64
		want             int
	}{
		// The motivating case: 0.3/0.1 truncates to 2 without the fix.
		{0.3, 0.1, 3},
		// More non-representable duration/tick ratios that float
		// division lands just below the integer.
		{0.7, 0.1, 7},
		{1.2, 0.4, 3},
		{2.1, 0.7, 3},
		{0.9, 0.3, 3},
		{4.2, 0.1, 42},
		// Exactly representable ratios must be unchanged.
		{30, 0.1, 300},
		{1800, 0.1, 18000},
		{1, 0.25, 4},
		// Genuine fractional ticks still truncate to whole intervals.
		{0.25, 0.1, 2},
		{0.55, 0.2, 2},
		{1.05, 0.5, 2},
	}
	for _, c := range cases {
		if got := tickCount(c.durationS, c.tickS); got != c.want {
			t.Errorf("tickCount(%g, %g) = %d, want %d (raw ratio %.17g)",
				c.durationS, c.tickS, got, c.want, c.durationS/c.tickS)
		}
	}
}

// TestRunExecutesAllTicks drives the lost-tick fix end to end: a run with
// DurationS=0.3 at the paper's 100 ms tick must execute exactly 3 ticks,
// and a stepped engine's tick states must read t=0.0 (the initial
// state) and then one time per tick.
func TestRunExecutesAllTicks(t *testing.T) {
	cfg := testConfig(t, floorplan.EXP1, policy.NewDefault(), "Web-med", 0.3, 1)
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Ticks != 3 {
		t.Fatalf("DurationS=0.3 TickS=0.1 ran %d ticks, want 3", r.Ticks)
	}
	cfg.Policy = policy.NewDefault()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var st TickState
	var times []string
	for {
		e.TickStateInto(&st)
		times = append(times, strconv.FormatFloat(st.TimeS, 'f', 1, 64))
		if err := e.Step(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if want := []string{"0.0", "0.1", "0.2", "0.3"}; !slices.Equal(times, want) {
		t.Errorf("tick states at t=%v, want %v", times, want)
	}
}

// steadyEngine builds an engine in a steady state for the allocation
// contract: every job arrives at t=0 and carries far more work than the
// measured window, so ticks execute the full pipeline (dispatchless,
// busy cores, leakage loop, thermal step, sensing, metrics) with no
// job-lifecycle churn.
func steadyEngine(tb testing.TB, pol policy.Policy) *Engine {
	return steadyEngineCfg(tb, Config{Policy: pol, DurationS: 1800})
}

// steadyEngineCfg is steadyEngine with a caller-supplied config (the
// lifetime-tracker contract variant flips TrackLifetime on); it sets the
// config's stack (EXP-1) and its steady trace.
func steadyEngineCfg(tb testing.TB, cfg Config) *Engine {
	tb.Helper()
	n := 8 // EXP-1 cores
	jobs := make([]workload.Job, 2*n)
	for i := range jobs {
		jobs[i] = workload.Job{ID: i, ArrivalS: 0, WorkS: 1e9, MemActivity: 0.3}
	}
	cfg.StackSpec = expSpec(tb, floorplan.EXP1)
	cfg.Jobs = jobs
	e, err := newEngine(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// BenchmarkRunTick measures the steady-state per-tick cost of the full
// pipeline (policy, scheduler, leakage loop, thermal step, sensing,
// metrics) in isolation: run setup — factorizations, fixed-point init,
// scratch preallocation — happens outside the timer and every iteration
// is exactly one engine tick, so ns/op is a per-tick figure rather than
// mostly setup; allocs/op is 0 by the contract the test below enforces.
func BenchmarkRunTick(b *testing.B) {
	e := steadyEngine(b, policy.NewDefault())
	tick := 0
	for ; tick < 50; tick++ { // settle into steady state
		if err := e.tick(tick); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.tick(tick); err != nil {
			b.Fatal(err)
		}
		tick++
	}
}

// TestTickLoopAllocationContract locks down the zero-allocation property
// of the steady-state tick pipeline (no trace writer) at a bound of 0:
// if a single per-tick allocation sneaks back into the thermal step,
// power model, scheduler, sensors, metrics, wear tracker, or policy
// plumbing, this fails rather than silently rotting the hot path.
func TestTickLoopAllocationContract(t *testing.T) {
	adaptRand, err := policy.NewAdaptRand(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The planners decide on every tick, so each measured tick runs a
	// full rollout epoch.
	everyTick := func(p *policy.MPC) *policy.MPC {
		p.EpochTicks = 1
		return p
	}
	noise := thermal.SensorConfig{NoiseStdDevC: 0.5, Seed: 3}
	for _, pc := range []struct {
		name     string
		pol      policy.Policy
		lifetime bool
		sensors  thermal.SensorConfig
	}{
		{"Default", policy.NewDefault(), false, thermal.SensorConfig{}},
		{"DVFS_TT", policy.NewDVFSTT(), false, thermal.SensorConfig{}},
		{"CGate", policy.NewCGate(), false, thermal.SensorConfig{}},
		{"Migr", policy.NewMigr(), false, thermal.SensorConfig{}},
		{"AdaptRand", adaptRand, false, thermal.SensorConfig{}},
		// The streaming lifetime tracker must preserve the contract:
		// reliability-enabled sweeps run the same zero-alloc loop.
		{"Default+lifetime", policy.NewDefault(), true, thermal.SensorConfig{}},
		{"DVFS_Rel+lifetime", policy.NewDVFSRel(), true, thermal.SensorConfig{}},
		{"MPC_Thermal", everyTick(policy.NewMPCThermal()), false, thermal.SensorConfig{}},
		{"MPC_Thermal+noise", everyTick(policy.NewMPCThermal()), false, noise},
		{"MPC_Rel+lifetime", everyTick(policy.NewMPCRel()), true, thermal.SensorConfig{}},
	} {
		t.Run(pc.name, func(t *testing.T) {
			// A representative temperature observer (fold, don't retain)
			// rides along: the observation hook must not cost the
			// contract anything either.
			sum := 0.0
			e := steadyEngineCfg(t, Config{
				Policy:        pc.pol,
				DurationS:     1800,
				TrackLifetime: pc.lifetime,
				Sensors:       pc.sensors,
				Observer: FuncObserver{Temps: func(blockTempsC, coreTempsC []float64) {
					sum += blockTempsC[0] + coreTempsC[0]
				}},
			})
			tick := 0
			// Warm up: drain arrival dispatch and policy lazy init.
			for ; tick < 50; tick++ {
				if err := e.tick(tick); err != nil {
					t.Fatal(err)
				}
			}
			avg := testing.AllocsPerRun(200, func() {
				if err := e.tick(tick); err != nil {
					t.Fatal(err)
				}
				tick++
			})
			if avg != 0 {
				t.Errorf("steady-state tick averages %.2f allocs, want 0", avg)
			}
			if sum == 0 {
				t.Error("temperature observer never observed a temperature")
			}
		})
	}
}

// TestObserveTempsHook pins the observation contract: ObserveTemps
// fires once per completed tick with the block- and core-width
// temperature vectors of that tick, and the final observation matches
// the run's reported final state.
func TestObserveTempsHook(t *testing.T) {
	calls := 0
	var lastBlocks, lastCores []float64
	cfg := shortCfg(t, policy.NewDefault())
	cfg.Observer = FuncObserver{Temps: func(blockTempsC, coreTempsC []float64) {
		calls++
		// Fold into caller state (the documented pattern); the slices
		// themselves are engine-owned and must not be retained, so
		// copy what the assertion needs.
		lastBlocks = append(lastBlocks[:0], blockTempsC...)
		lastCores = append(lastCores[:0], coreTempsC...)
	}}
	cfg.TrackLifetime = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if calls != res.Ticks {
		t.Errorf("ObserveTemps fired %d times over %d ticks", calls, res.Ticks)
	}
	if len(lastBlocks) != len(res.FinalBlockTempsC) {
		t.Fatalf("ObserveTemps block width %d, want %d", len(lastBlocks), len(res.FinalBlockTempsC))
	}
	for i := range lastBlocks {
		if lastBlocks[i] != res.FinalBlockTempsC[i] {
			t.Fatalf("last ObserveTemps observation differs from final block temps at %d: %g vs %g",
				i, lastBlocks[i], res.FinalBlockTempsC[i])
		}
	}
	if len(lastCores) == 0 || len(lastCores) >= len(lastBlocks) {
		t.Errorf("core vector width %d implausible against %d blocks", len(lastCores), len(lastBlocks))
	}
}
