package sim

import (
	"fmt"
	"io"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/policy"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// snapCase is one checkpoint/restore scenario: a config factory (fresh
// policy per engine — policies are stateful) spanning the paper's
// stacks, the grid discretization, sensor noise, DPM, and runs with
// and without lifetime tracking. Runs are longer than the 100-tick
// cycle window, so a mid-run checkpoint (tick 120) holds the cycle
// meter part way through its second block: raw samples beside the
// first block's suffix extrema.
type snapCase struct {
	name string
	cfg  func(t *testing.T) Config
}

func snapCases() []snapCase {
	base := func(t *testing.T, exp floorplan.Experiment, pol policy.Policy) Config {
		t.Helper()
		return testConfig(t, exp, pol, "Web-med", 24, 1)
	}
	return []snapCase{
		{"EXP1/Default", func(t *testing.T) Config {
			return base(t, floorplan.EXP1, policy.NewDefault())
		}},
		{"EXP2/DVFS_TT+noise", func(t *testing.T) Config {
			// EXP-2 with its core power scaled 3.5x under Web-high: the
			// cores cross the 85 °C threshold, so DVFS_TT's levels follow
			// the noisy readings and the restored sensor stream decides
			// the run.
			spec := *expSpec(t, floorplan.EXP2)
			spec.Layers = append([]floorplan.LayerSpec(nil), spec.Layers...)
			for i := range spec.Layers {
				spec.Layers[i].PowerScale = 3.5
			}
			c := withTrace(t, Config{StackSpec: &spec, Policy: policy.NewDVFSTT(), DurationS: 24}, "Web-high", 1)
			c.Sensors = thermal.SensorConfig{NoiseStdDevC: 0.5, Seed: 7}
			return c
		}},
		{"EXP3/AdaptRand", func(t *testing.T) Config {
			p, err := policy.NewAdaptRand(16, 3)
			if err != nil {
				t.Fatal(err)
			}
			return base(t, floorplan.EXP3, p)
		}},
		{"EXP4/DVFS_Rel+lifetime", func(t *testing.T) Config {
			c := base(t, floorplan.EXP4, policy.NewDVFSRel())
			c.TrackLifetime = true
			return c
		}},
		{"EXP5/Migr+DPM", func(t *testing.T) Config {
			c := base(t, floorplan.EXP5, policy.NewMigr())
			c.DPM = policy.DefaultDPM()
			return c
		}},
		{"EXP6/CGate+lifetime", func(t *testing.T) Config {
			c := base(t, floorplan.EXP6, policy.NewCGate())
			c.TrackLifetime = true
			return c
		}},
		{"EXP2-grid/DVFS_Util", func(t *testing.T) Config {
			c := base(t, floorplan.EXP2, policy.NewDVFSUtil())
			c.GridRows, c.GridCols = 6, 6
			return c
		}},
		{"EXP1/MPC_Thermal", func(t *testing.T) Config {
			return base(t, floorplan.EXP1, policy.NewMPCThermal())
		}},
		{"EXP2/MPC_Rel+lifetime", func(t *testing.T) Config {
			c := base(t, floorplan.EXP2, policy.NewMPCRel())
			c.TrackLifetime = true
			return c
		}},
	}
}

// stateOf returns an unstepped fork of e with its policy and rollout
// cleared: all of e's mutable state but the policy, in a value that
// reflect.DeepEqual can compare with another engine's.
func stateOf(t *testing.T, e *Engine) *Engine {
	t.Helper()
	f, err := e.Fork()
	if err != nil {
		t.Fatal(err)
	}
	f.cfg.Policy, f.rollout = nil, nil
	return f
}

// stepAll drives an engine to the end of its run.
func stepAll(t *testing.T, e *Engine) {
	t.Helper()
	for {
		if err := e.Step(); err == io.EOF {
			return
		} else if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotRestoreResumesBitwise is the checkpoint contract: fork a
// checkpoint mid-run, finish the run, rewind to the checkpoint, finish
// again — both completions must produce bitwise-identical Results (all
// metric aggregates, final temperature fields, reliability reports),
// and both must match an uninterrupted reference run exactly.
func TestSnapshotRestoreResumesBitwise(t *testing.T) {
	for _, tc := range snapCases() {
		t.Run(tc.name, func(t *testing.T) {
			want, err := Run(tc.cfg(t))
			if err != nil {
				t.Fatal(err)
			}

			cfg := tc.cfg(t)
			var e *Engine
			throttled := false
			cfg.Observer = FuncObserver{Tick: func(int) {
				for _, l := range e.levels {
					throttled = throttled || l > 0
				}
			}}
			e, err = NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			mid := e.TotalTicks() / 2
			for e.TickIndex() < mid {
				if err := e.Step(); err != nil {
					t.Fatal(err)
				}
			}
			ck, err := e.Fork()
			if err != nil {
				t.Fatal(err)
			}
			if ck.TickIndex() != mid {
				t.Fatalf("checkpoint at %d completed ticks, want %d", ck.TickIndex(), mid)
			}

			stepAll(t, e)
			first, err := e.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first, want) {
				t.Fatalf("run with a mid-run checkpoint diverged from the plain run\n got %+v\nwant %+v", first, want)
			}

			if err := e.Restore(ck); err != nil {
				t.Fatal(err)
			}
			if e.TickIndex() != mid {
				t.Fatalf("restore rewound to tick %d, want %d", e.TickIndex(), mid)
			}
			stepAll(t, e)
			second, err := e.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(second, want) {
				t.Fatalf("restored run diverged from the plain run\n got %+v\nwant %+v", second, want)
			}
			// DVFS_TT acts only above the threshold: its case must
			// throttle, or the noisy readings decide nothing.
			if _, tt := cfg.Policy.(*policy.DVFSTT); tt && !throttled {
				t.Fatal("DVFS_TT never left its top V/f level")
			}
		})
	}
}

// TestSnapshotRestoreRepeats pins that one checkpoint supports any
// number of restores: each resumed completion must be identical, i.e.
// neither restoring nor resuming consumes or mutates the checkpoint.
func TestSnapshotRestoreRepeats(t *testing.T) {
	tc := snapCases()[3] // DVFS_Rel+lifetime: the most stateful policy
	want, err := Run(tc.cfg(t))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(tc.cfg(t))
	if err != nil {
		t.Fatal(err)
	}
	mid := e.TotalTicks() / 2
	for e.TickIndex() < mid {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	ck, err := e.Fork()
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		if err := e.Restore(ck); err != nil {
			t.Fatal(err)
		}
		stepAll(t, e)
		res, err := e.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("restore round %d diverged from the plain run", round)
		}
	}
}

// TestRestoreAfterLiveEvents restores a checkpoint taken after live
// events the way a session seek does: a fresh engine re-applies the
// structural events (interface degradation, a job splice) at tick 0,
// then restores from a checkpoint taken after a policy swap. Its
// completion must equal the live engine's, the policy name included.
func TestRestoreAfterLiveEvents(t *testing.T) {
	high, err := workload.ByName("Web-high")
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *Engine {
		cfg := testConfig(t, floorplan.EXP2, policy.NewDefault(), "Web-med", 4, 1)
		cfg.TrackLifetime = true
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	live := mk()
	splice, err := workload.Generate(workload.GenConfig{Bench: high, NumCores: live.n, DurationS: 4, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	events := map[int]func(e *Engine) error{
		5: func(e *Engine) error { return e.SetPolicy(policy.NewDVFSTT()) },
		7: func(e *Engine) error { return e.DegradeInterfaces(1.5) },
		9: func(e *Engine) error { return e.SpliceJobs(9, splice) },
	}
	var ck *Engine
	for {
		if ev := events[live.TickIndex()]; ev != nil {
			if err := ev(live); err != nil {
				t.Fatal(err)
			}
		}
		if live.TickIndex() == 12 {
			if ck, err = live.Fork(); err != nil {
				t.Fatal(err)
			}
		}
		if err := live.Step(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	want, err := live.Finish()
	if err != nil {
		t.Fatal(err)
	}

	seek := mk()
	if err := events[7](seek); err != nil {
		t.Fatal(err)
	}
	if err := events[9](seek); err != nil {
		t.Fatal(err)
	}
	if err := seek.Restore(ck); err != nil {
		t.Fatal(err)
	}
	stepAll(t, seek)
	got, err := seek.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored run diverged from the live run\n got %+v\nwant %+v", got, want)
	}
}

// TestForkIsolation pins the fork ownership contract: a fork advancing
// through its own ticks must leave every piece of the parent's mutable
// state untouched (compared fork to fork, which covers the integrator
// state, queues, meters, wear, and scratch), and the parent
// must then complete bitwise-identically to an unforked run. The fork,
// holding a clone of the same policy state, must converge to the same
// result as the run it branched from.
func TestForkIsolation(t *testing.T) {
	for _, tc := range []snapCase{snapCases()[2], snapCases()[3]} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := Run(tc.cfg(t))
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewEngine(tc.cfg(t))
			if err != nil {
				t.Fatal(err)
			}
			mid := e.TotalTicks() / 2
			for e.TickIndex() < mid {
				if err := e.Step(); err != nil {
					t.Fatal(err)
				}
			}

			before := stateOf(t, e)
			f, err := e.Fork()
			if err != nil {
				t.Fatal(err)
			}
			stepAll(t, f)
			if !reflect.DeepEqual(before, stateOf(t, e)) {
				t.Fatal("advancing a fork mutated the parent engine's state")
			}

			fres, err := f.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fres, want) {
				t.Fatalf("fork completion diverged from the plain run\n got %+v\nwant %+v", fres, want)
			}

			stepAll(t, e)
			res, err := e.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, want) {
				t.Fatalf("parent completion after forking diverged from the plain run\n got %+v\nwant %+v", res, want)
			}
		})
	}
}

// TestSnapshotRestoreShapeMismatch pins the validation edges: restoring
// from an engine whose policy cannot fork, from one on a different
// stack, or from one with mismatched reliability tracking must error
// rather than corrupt the engine.
func TestSnapshotRestoreShapeMismatch(t *testing.T) {
	mk := func(t *testing.T, exp floorplan.Experiment, lifetime bool) *Engine {
		cfg := testConfig(t, exp, policy.NewDefault(), "Web-med", 2, 1)
		cfg.TrackLifetime = lifetime
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	e := mk(t, floorplan.EXP1, false)
	unforkable := mk(t, floorplan.EXP1, false)
	// Embedding the interface hides Default's Fork.
	unforkable.cfg.Policy = struct{ policy.Policy }{policy.NewDefault()}
	if err := e.Restore(unforkable); err == nil {
		t.Error("restore from an engine whose policy cannot fork succeeded")
	}
	if err := e.Restore(mk(t, floorplan.EXP4, false)); err == nil {
		t.Error("restore across stacks succeeded")
	}
	if err := e.Restore(mk(t, floorplan.EXP1, true)); err == nil {
		t.Error("restore across reliability-tracking modes succeeded")
	}
}

// TestSnapshotAllocationContract extends the hot-path allocation
// contract to checkpointing: once a checkpoint exists, steady capture
// into it (ck.Restore(e)) interleaved with ticking stays
// allocation-bounded — a few allocations for the policy clone, none
// proportional to model size or tick count.
func TestSnapshotAllocationContract(t *testing.T) {
	e := steadyEngineCfg(t, Config{
		Policy:        policy.NewDefault(),
		DurationS:     1800,
		TrackLifetime: true,
	})
	tick := 0
	for ; tick < 50; tick++ {
		if err := e.tick(tick); err != nil {
			t.Fatal(err)
		}
	}
	ck, err := e.Fork()
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := e.tick(tick); err != nil {
			t.Fatal(err)
		}
		tick++
		if err := ck.Restore(e); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 8 {
		t.Errorf("steady tick+checkpoint averages %.2f allocs, want <= 8", avg)
	}
}

// TestForkAllocationBounded pins that Fork's cost is a constant per
// call — fresh per-tick buffers and a state transplant — independent of
// how far the parent has advanced. A regression that made forking
// retain or copy per-tick history would blow the bound. The Web-high
// engine finishes jobs all along, so a fork that copied the finished
// jobs would grow by one allocation per job.
func TestForkAllocationBounded(t *testing.T) {
	webHigh, err := NewEngine(testConfig(t, floorplan.EXP1, policy.NewDefault(), "Web-high", 300, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		e    *Engine
	}{
		{"steady", steadyEngine(t, policy.NewDefault())},
		{"Web-high", webHigh},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.e
			measure := func(until int) float64 {
				for e.tickIdx < until {
					if err := e.tick(e.tickIdx); err != nil {
						t.Fatal(err)
					}
				}
				return testing.AllocsPerRun(20, func() {
					if _, err := e.Fork(); err != nil {
						t.Fatal(err)
					}
				})
			}
			early := measure(50)
			for _, until := range []int{500, 2500} {
				late := measure(until)
				t.Logf("%.0f allocs per fork at tick 50, %.0f at tick %d", early, late, until)
				if late > early*1.5+16 {
					t.Errorf("fork cost grew with run progress: %.1f allocs at tick 50, %.1f at tick %d", early, late, until)
				}
			}
			if n := e.machine.ComputeStats().Completed; tc.e == webHigh && n < 100 {
				t.Fatalf("only %d jobs finished by tick 2500; the case needs job history", n)
			}
		})
	}
}

// TestCheckpointHoldsNoSolveScratch checks what a checkpoint keeps of
// the integrator: an unstepped fork shares its source's C/dt vector
// (the model's per-step memo) and holds no solve scratch, which its
// first sequential step allocates. It logs the heap 200 checkpoints
// retain, per checkpoint, for the EXP-2 block model and the EXP-4
// 16×16 grid (1,290 nodes), DVFS_Rel with lifetime tracking on
// Web-med, at tick 300.
func TestCheckpointHoldsNoSolveScratch(t *testing.T) {
	for _, tc := range []struct {
		name string
		exp  floorplan.Experiment
		grid int
	}{
		{"EXP2", floorplan.EXP2, 0},
		{"EXP4-grid16", floorplan.EXP4, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(t, tc.exp, policy.NewDVFSRel(), "Web-med", 60, 1)
			cfg.GridRows, cfg.GridCols = tc.grid, tc.grid
			cfg.TrackLifetime = true
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for e.tickIdx < 300 {
				if err := e.tick(e.tickIdx); err != nil {
					t.Fatal(err)
				}
			}
			ck, err := e.Fork()
			if err != nil {
				t.Fatal(err)
			}
			src, tr := reflect.ValueOf(e.tr).Elem(), reflect.ValueOf(ck.tr).Elem()
			scratch := []string{"rhs", "pn", "scratch"}
			for _, f := range scratch {
				if !tr.FieldByName(f).IsNil() {
					t.Errorf("an unstepped fork's integrator holds %s", f)
				}
			}
			if tr.FieldByName("cdt").Pointer() != src.FieldByName("cdt").Pointer() {
				t.Error("the fork's integrator does not share its source's C/dt")
			}
			if err := ck.Step(); err != nil {
				t.Fatal(err)
			}
			for _, f := range scratch {
				if tr.FieldByName(f).IsNil() {
					t.Errorf("a stepped fork's integrator has no %s", f)
				}
			}

			const n = 200
			cks := make([]*Engine, n)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := range cks {
				if cks[i], err = e.Fork(); err != nil {
					t.Fatal(err)
				}
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(cks)
			t.Logf("%s, %d nodes: %.1f KB and %.0f objects retained per checkpoint", tc.name, len(e.nodeTemps),
				float64(after.HeapAlloc-before.HeapAlloc)/n/1024, float64((after.Mallocs-after.Frees)-(before.Mallocs-before.Frees))/n)
		})
	}
}

// TestMPCDeterministicActions pins the MPC decision loop: with the same
// seed, two runs must choose the identical per-tick DVFS level
// sequence and produce bitwise-identical Results, with rollout lanes
// reused across epochs and duplicate candidates scored once.
func TestMPCDeterministicActions(t *testing.T) {
	for _, tc := range []struct {
		name     string
		mk       func() policy.Policy
		lifetime bool
	}{
		{"MPC_Thermal", func() policy.Policy { return policy.NewMPCThermal() }, false},
		{"MPC_Rel", func() policy.Policy { return policy.NewMPCRel() }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runOnce := func() ([]string, *Result) {
				cfg := testConfig(t, floorplan.EXP2, tc.mk(), "Web-high", 8, 1)
				cfg.TrackLifetime = tc.lifetime
				e, err := NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var actions []string
				for {
					err := e.Step()
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Fatal(err)
					}
					actions = append(actions, fmt.Sprint(e.levels))
				}
				res, err := e.Finish()
				if err != nil {
					t.Fatal(err)
				}
				return actions, res
			}
			actA, resA := runOnce()
			actB, resB := runOnce()
			if !reflect.DeepEqual(actA, actB) {
				for i := range actA {
					if actA[i] != actB[i] {
						t.Fatalf("action sequences diverge at tick %d: %s vs %s", i, actA[i], actB[i])
					}
				}
				t.Fatal("action sequences differ in length")
			}
			if !reflect.DeepEqual(resA, resB) {
				t.Fatalf("same-seed MPC runs produced different results\n got %+v\nwant %+v", resA, resB)
			}
		})
	}
}

// BenchmarkSnapshotFork measures the checkpoint primitives on a warm
// engine: one capture+restore round trip through a checkpoint fork per
// iteration, buffers reused, so ns/op reflects the state-vector copies
// rather than any model work.
func BenchmarkSnapshotFork(b *testing.B) {
	e := steadyEngine(b, policy.NewDefault())
	for tick := 0; tick < 50; tick++ {
		if err := e.tick(tick); err != nil {
			b.Fatal(err)
		}
	}
	ck, err := e.Fork()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ck.Restore(e); err != nil {
			b.Fatal(err)
		}
		if err := e.Restore(ck); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMPCDecision measures one full MPC decision epoch: candidate
// construction, the lockstep horizon rollout of the distinct
// candidates on the calling goroutine (one panel solve per lane tick),
// and the commit. Lanes are built outside the timer (first Evaluate),
// matching the steady per-epoch cost a long run pays; the epoch
// allocates nothing.
func BenchmarkMPCDecision(b *testing.B) {
	pol := policy.NewMPCThermal()
	pol.EpochTicks = 1 // decide on every tick: each iteration is one epoch
	e := steadyEngineCfg(b, Config{Policy: pol, DurationS: 1800})
	for tick := 0; tick < 50; tick++ {
		if err := e.tick(tick); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.tick(e.tickIdx); err != nil {
			b.Fatal(err)
		}
	}
}
