package sim

import (
	"fmt"
	"io"
	"reflect"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/policy"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// snapCase is one snapshot/restore scenario: a config factory (fresh
// policy per engine — policies are stateful) spanning the paper's
// stacks, the grid discretization, sensor noise, DPM, and runs with
// and without lifetime tracking.
type snapCase struct {
	name string
	cfg  func(t *testing.T) Config
}

func snapCases() []snapCase {
	base := func(t *testing.T, exp floorplan.Experiment, pol policy.Policy) Config {
		t.Helper()
		b, err := workload.ByName("Web-med")
		if err != nil {
			t.Fatal(err)
		}
		return Config{
			Exp:       exp,
			Policy:    pol,
			Bench:     b,
			DurationS: 8,
			Seed:      1,
		}
	}
	return []snapCase{
		{"EXP1/Default", func(t *testing.T) Config {
			return base(t, floorplan.EXP1, policy.NewDefault())
		}},
		{"EXP2/DVFS_TT+noise", func(t *testing.T) Config {
			c := base(t, floorplan.EXP2, policy.NewDVFSTT())
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
			c.UseDPM = true
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

// TestSnapshotRestoreResumesBitwise is the tentpole contract: capture a
// snapshot mid-run, finish the run, rewind to the snapshot, finish
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
			var snap Snapshot
			if err := e.Snapshot(&snap); err != nil {
				t.Fatal(err)
			}
			if snap.Ticks() != mid {
				t.Fatalf("snapshot at %d completed ticks, want %d", snap.Ticks(), mid)
			}

			stepAll(t, e)
			first, err := e.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first, want) {
				t.Fatalf("run with a mid-run snapshot diverged from the plain run\n got %+v\nwant %+v", first, want)
			}

			if err := e.Restore(&snap); err != nil {
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
		})
	}
}

// TestSnapshotRestoreRepeats pins that one snapshot supports any number
// of restores: each resumed completion must be identical, i.e. neither
// restoring nor resuming consumes or mutates the snapshot.
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
	var snap Snapshot
	if err := e.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		if err := e.Restore(&snap); err != nil {
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

// TestForkIsolation pins the fork ownership contract: a fork advancing
// through its own ticks must leave every piece of the parent's mutable
// state untouched (compared snapshot-to-snapshot, which covers the
// integrator state, queues, meters, wear, and scratch), and the parent
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

			var before Snapshot
			e.snapshotInto(&before)
			f, err := e.Fork()
			if err != nil {
				t.Fatal(err)
			}
			stepAll(t, f)
			var after Snapshot
			e.snapshotInto(&after)
			if !reflect.DeepEqual(&before, &after) {
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
// an empty snapshot, a snapshot from a different stack, or one with
// mismatched reliability tracking must error rather than corrupt the
// engine.
func TestSnapshotRestoreShapeMismatch(t *testing.T) {
	mk := func(t *testing.T, exp floorplan.Experiment, lifetime bool) *Engine {
		b, err := workload.ByName("Web-med")
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(Config{
			Exp: exp, Policy: policy.NewDefault(), Bench: b,
			DurationS: 2, Seed: 1, TrackLifetime: lifetime,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	e := mk(t, floorplan.EXP1, false)
	var empty Snapshot
	if err := e.Restore(&empty); err == nil {
		t.Error("restore from an empty snapshot succeeded")
	}
	var snap Snapshot
	if err := mk(t, floorplan.EXP4, false).Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if err := e.Restore(&snap); err == nil {
		t.Error("restore across stacks succeeded")
	}
	var rel Snapshot
	if err := mk(t, floorplan.EXP1, true).Snapshot(&rel); err != nil {
		t.Fatal(err)
	}
	if err := e.Restore(&rel); err == nil {
		t.Error("restore across reliability-tracking modes succeeded")
	}
}

// TestSnapshotAllocationContract extends the hot-path allocation
// contract to checkpointing: once a Snapshot's buffers are warm,
// steady capture interleaved with ticking stays allocation-bounded — a
// few allocations for the policy clone, none proportional to model
// size or tick count.
func TestSnapshotAllocationContract(t *testing.T) {
	e := steadyEngineCfg(t, Config{
		Policy:        policy.NewDefault(),
		DurationS:     1800,
		Seed:          1,
		TrackLifetime: true,
	})
	tick := 0
	for ; tick < 50; tick++ {
		if err := e.tick(tick); err != nil {
			t.Fatal(err)
		}
	}
	var snap Snapshot
	if err := e.Snapshot(&snap); err != nil { // warm the buffers
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := e.tick(tick); err != nil {
			t.Fatal(err)
		}
		tick++
		if err := e.Snapshot(&snap); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 8 {
		t.Errorf("steady tick+snapshot averages %.2f allocs, want <= 8", avg)
	}
}

// TestForkAllocationBounded pins that Fork's cost is a constant per
// call — fresh per-tick buffers and a state transplant — independent of
// how far the parent has advanced. A regression that made forking
// retain or copy per-tick history would blow the bound. The Web-high
// engine finishes jobs all along, so a fork that copied the finished
// jobs would grow by one allocation per job.
func TestForkAllocationBounded(t *testing.T) {
	b, err := workload.ByName("Web-high")
	if err != nil {
		t.Fatal(err)
	}
	webHigh, err := NewEngine(Config{Exp: floorplan.EXP1, Policy: policy.NewDefault(), Bench: b, DurationS: 300, Seed: 1})
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
				b, err := workload.ByName("Web-high")
				if err != nil {
					t.Fatal(err)
				}
				e, err := NewEngine(Config{
					Exp:           floorplan.EXP2,
					Policy:        tc.mk(),
					Bench:         b,
					DurationS:     8,
					Seed:          1,
					TrackLifetime: tc.lifetime,
				})
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
// engine: one capture+restore round trip per iteration, buffers
// reused, so ns/op reflects the state-vector copies rather than any
// model work.
func BenchmarkSnapshotFork(b *testing.B) {
	e := steadyEngine(b, policy.NewDefault())
	for tick := 0; tick < 50; tick++ {
		if err := e.tick(tick); err != nil {
			b.Fatal(err)
		}
	}
	var snap Snapshot
	if err := e.Snapshot(&snap); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Snapshot(&snap); err != nil {
			b.Fatal(err)
		}
		if err := e.Restore(&snap); err != nil {
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
	e := steadyEngineCfg(b, Config{
		Policy:    pol,
		DurationS: 1800,
		Seed:      1,
	})
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
