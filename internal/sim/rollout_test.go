package sim

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/reliability"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// heldRollout scores one candidate the direct way: a full fork of the
// host running a HeldAction, full engine ticks (sensor reads, metrics,
// the host's wear tracker copy), a scalar thermal solve per tick, and a
// private scoring tracker. It is the reference the lean lockstep
// evaluation must match.
func heldRollout(t *testing.T, host *Engine, a policy.Action, horizonTicks int) policy.RolloutScore {
	t.Helper()
	pol := policy.NewHeldAction()
	cfg := host.cfg
	cfg.Policy = pol
	f, err := host.fork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.copyState(host); err != nil {
		t.Fatal(err)
	}
	pol.Set(a)
	tracker, err := reliability.NewTracker(host.model.NumBlocks(), tickS)
	if err != nil {
		t.Fatal(err)
	}
	peak := math.Inf(-1)
	for i := 0; i < horizonTicks && f.tickIdx < f.nTicks; i++ {
		if err := f.tick(f.tickIdx); err != nil {
			t.Fatal(err)
		}
		for _, c := range f.coreTemps {
			if c > peak {
				peak = c
			}
		}
		if err := tracker.Observe(f.blockTemps); err != nil {
			t.Fatal(err)
		}
	}
	if math.IsInf(peak, -1) {
		for _, c := range f.coreTemps {
			if c > peak {
				peak = c
			}
		}
	}
	worst := 0.0
	for _, b := range tracker.Report().Blocks {
		if d := b.CycleDamage; d > worst {
			worst = d
		}
	}
	return policy.RolloutScore{PeakTempC: peak, WorstCycleDamage: worst}
}

// rolloutCandidates returns seven candidates for n cores, five of them
// distinct: candidate 4 repeats candidate 0, candidate 5 repeats
// candidate 3's levels and migration through another pointer, and
// candidate 6 has candidate 3's levels with another migration.
func rolloutCandidates(n int) ([]policy.Action, int) {
	uniform := func(l power.VfLevel) []power.VfLevel {
		lv := make([]power.VfLevel, n)
		for c := range lv {
			lv[c] = l
		}
		return lv
	}
	mixed := make([]power.VfLevel, n)
	for c := range mixed {
		mixed[c] = power.VfLevel(c % 3)
	}
	mig, again, other := policy.Migration{From: 0, To: n - 1}, policy.Migration{From: 0, To: n - 1}, policy.Migration{From: 1, To: n - 2}
	return []policy.Action{
		{Levels: uniform(0)},
		{Levels: mixed},
		{Levels: uniform(2)},
		{Levels: append([]power.VfLevel(nil), mixed...), Migration: &mig},
		{Levels: uniform(0)},
		{Levels: mixed, Migration: &again},
		{Levels: mixed, Migration: &other},
	}, 5
}

// TestRolloutScoresMatchFullForks pins the lockstep rollout against the
// per-candidate full-fork reference (heldRollout): on an MPC host stopped
// mid-run, near its end (horizon clipped to two ticks) and at its end
// (clipped to none), Evaluate's scores equal heldRollout's bit for bit
// for every candidate, duplicates included, with lifetime tracking on
// and off, DPM and sensor noise. Only the distinct candidates get lanes
// that advance, and evaluation leaves the host's state untouched. The
// subtest names keep the solver labels they were first written for;
// every label solves on the one shared factorization.
func TestRolloutScoresMatchFullForks(t *testing.T) {
	noise := thermal.SensorConfig{NoiseStdDevC: 0.5, Seed: 9}
	for _, tc := range []struct {
		name     string
		lifetime bool
		dpm      bool
		sensors  thermal.SensorConfig
	}{
		{"cached", false, false, thermal.SensorConfig{}},
		{"cached+lifetime+noise", true, false, noise},
		{"sparse+lifetime+DPM", true, true, thermal.SensorConfig{}},
		{"dense+noise", false, false, noise},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(t, floorplan.EXP1, policy.NewMPCRel(), "Web-high", 4, 3)
			cfg.TrackLifetime = tc.lifetime
			if tc.dpm {
				cfg.DPM = policy.DefaultDPM()
			}
			cfg.Sensors = tc.sensors
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			actions, distinct := rolloutCandidates(e.n)
			r := &rolloutSim{host: e}
			for _, at := range []int{17, e.nTicks - 2, e.nTicks} {
				for e.tickIdx < at {
					if err := e.Step(); err != nil {
						t.Fatal(err)
					}
				}
				before := stateOf(t, e)
				scores := make([]policy.RolloutScore, len(actions))
				if err := r.Evaluate(actions, 5, scores); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(before, stateOf(t, e)) {
					t.Fatalf("tick %d: Evaluate changed the host's state", at)
				}
				for i, a := range actions {
					want := heldRollout(t, e, a, 5)
					got := scores[i]
					if math.Float64bits(got.PeakTempC) != math.Float64bits(want.PeakTempC) ||
						math.Float64bits(got.WorstCycleDamage) != math.Float64bits(want.WorstCycleDamage) {
						t.Errorf("tick %d, candidate %d: score %+v, full fork %+v", at, i, got, want)
					}
				}
				if at != 17 {
					continue
				}
				// The first Evaluate built a lane per candidate; only the
				// distinct candidates' lanes left the fresh state.
				for i, l := range r.lanes {
					advanced := l.eng.machine.NowS() > e.machine.NowS()
					untouched := l.eng.tickIdx == 0 && l.eng.energy.TotalJ() == 0
					if want := i < distinct; advanced != want || untouched == want {
						t.Errorf("lane %d: advanced %v, untouched %v; want only lanes 0-%d advanced", i, advanced, untouched, distinct-1)
					}
				}
			}
		})
	}
}

// TestRolloutFollowsLiveEvents pins that the live mutators which
// replace what rollout lanes share with the host — the job trace
// (SpliceJobs) and the thermal model (DegradeInterfaces) — leave the
// planner's own rollout, whose lanes earlier epochs built, scoring the
// host as it now is: after each event Evaluate equals the full-fork
// reference bit for bit.
func TestRolloutFollowsLiveEvents(t *testing.T) {
	e, err := NewEngine(testConfig(t, floorplan.EXP2, policy.NewMPCRel(), "Web-med", 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	high, err := workload.ByName("Web-high")
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := workload.Generate(workload.GenConfig{Bench: high, NumCores: e.n, DurationS: 4, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	actions, _ := rolloutCandidates(e.n)
	for _, ev := range []struct {
		name  string
		apply func() error
	}{
		{"SpliceJobs", func() error { return e.SpliceJobs(e.tickIdx, jobs) }},
		{"DegradeInterfaces", func() error { return e.DegradeInterfaces(4) }},
	} {
		for until := e.tickIdx + 11; e.tickIdx < until; {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if len(e.rollout.lanes) == 0 {
			t.Fatal("the planner's decision epochs built no lanes")
		}
		if err := ev.apply(); err != nil {
			t.Fatal(err)
		}
		scores := make([]policy.RolloutScore, len(actions))
		if err := e.rollout.Evaluate(actions, 5, scores); err != nil {
			t.Fatal(err)
		}
		for i, a := range actions {
			if want := heldRollout(t, e, a, 5); scores[i] != want {
				t.Errorf("after %s, candidate %d: score %+v, full fork %+v", ev.name, i, scores[i], want)
			}
		}
	}
}
