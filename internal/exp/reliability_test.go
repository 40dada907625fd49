package exp

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// lifetimeRun executes one policy on a fixed pre-generated trace with
// the streaming lifetime tracker enabled.
func lifetimeRun(t *testing.T, policy string, jobs []workload.Job, stack *floorplan.Stack) *sim.Result {
	t.Helper()
	pol, err := BuildPolicy(policy, stack, 11, thermal.SolverCached)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{
		Exp:           floorplan.EXP2,
		Policy:        pol,
		Jobs:          jobs,
		DurationS:     300,
		Seed:          11,
		TrackLifetime: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lifetime == nil {
		t.Fatalf("%s: TrackLifetime set but Result.Lifetime is nil", policy)
	}
	return res
}

// TestDVFSRelReducesWorstBlockDamage is the wear-aware policy's
// regression gate: on a fixed workload the lifetime-aware DVFS_Rel
// policy must accumulate strictly less worst-block thermal-cycling
// damage than the thermally-oblivious Default balancer — the paper's
// JEDEC-calibrated failure model says that difference is exactly what
// buys processor lifetime — and its relative-MTTF estimate must come
// out ahead.
func TestDVFSRelReducesWorstBlockDamage(t *testing.T) {
	stack := floorplan.MustBuild(floorplan.EXP2)
	b, err := workload.ByName("Web-med")
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := workload.Generate(workload.GenConfig{
		Bench: b, NumCores: stack.NumCores(), DurationS: 300, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}

	base := lifetimeRun(t, "Default", jobs, stack)
	rel := lifetimeRun(t, "DVFS_Rel", jobs, stack)

	bw, rw := base.Lifetime.Worst(), rel.Lifetime.Worst()
	if rw.CycleDamage >= bw.CycleDamage {
		t.Errorf("DVFS_Rel worst-block cycle damage %.4g not below Default's %.4g (blocks %s vs %s)",
			rw.CycleDamage, bw.CycleDamage, rw.Name, bw.Name)
	}
	if rel.Lifetime.RelMTTF <= base.Lifetime.RelMTTF {
		t.Errorf("DVFS_Rel RelMTTF %.4g not above Default's %.4g",
			rel.Lifetime.RelMTTF, base.Lifetime.RelMTTF)
	}
	// The win must not come from starving the workload: throttling may
	// leave a straggler in flight at the cutoff, but the performance
	// cost stays bounded (the probe measured <1% on this trace; 25% is
	// the alarm threshold, matching the paper's framing that lifetime
	// policies must not buy wear reduction with large delays).
	if rel.Sched.MeanResponseS > 1.25*base.Sched.MeanResponseS {
		t.Errorf("DVFS_Rel mean response %.3fs vs Default's %.3fs (>25%% slowdown)",
			rel.Sched.MeanResponseS, base.Sched.MeanResponseS)
	}
}

// TestStressScenarioExercisesReliability runs the degraded-TSV stress
// scenario next to the nominal EXP-4 stack through the real sweep
// runner with the lifetime tracker attached, and checks it does what
// it exists for: the worse bond must accumulate strictly more
// worst-block cycling damage and EM stress (and a lower relative MTTF)
// than the nominal build, under distinct job keys.
func TestStressScenarioExercisesReliability(t *testing.T) {
	spec := sweep.Spec{
		Scenarios:   append(sweep.ScenariosFor([]floorplan.Experiment{floorplan.EXP4}), StressScenarios()...),
		Policies:    []string{"Default"},
		Benchmarks:  []string{"Web-med"},
		Seed:        1,
		DurationsS:  []float64{60},
		Reliability: true,
	}
	col := &sweep.Collector{}
	if _, err := sweep.Execute(context.Background(), spec.Expand(), newRunner(), sweep.Options{}, col); err != nil {
		t.Fatal(err)
	}
	byScenario := make(map[string]sweep.Record, len(col.Records))
	for _, r := range col.Records {
		if !r.Reliability || r.RelWorstBlock == "" {
			t.Fatalf("record %s lacks reliability fields", r.Key)
		}
		byScenario[r.Scenario] = r
	}
	nominal, ok := byScenario["EXP-4"]
	if !ok {
		t.Fatal("no nominal EXP-4 record")
	}
	stressed, ok := byScenario["degraded-tsv@EXP-4/jr0.46"]
	if !ok {
		t.Fatalf("no degraded-tsv record (have %v)", byScenario)
	}
	if stressed.Key == nominal.Key {
		t.Fatal("stress scenario shares the nominal job key")
	}
	if stressed.RelWorstCycleDamage <= nominal.RelWorstCycleDamage {
		t.Errorf("degraded bond worst damage %.4g not above nominal %.4g",
			stressed.RelWorstCycleDamage, nominal.RelWorstCycleDamage)
	}
	if stressed.RelWorstEMFactor <= nominal.RelWorstEMFactor {
		t.Errorf("degraded bond EM factor %.4g not above nominal %.4g",
			stressed.RelWorstEMFactor, nominal.RelWorstEMFactor)
	}
	if stressed.RelMTTF >= nominal.RelMTTF {
		t.Errorf("degraded bond RelMTTF %.4g not below nominal %.4g",
			stressed.RelMTTF, nominal.RelMTTF)
	}
}

// TestLifetimeReportDeterministic pins the reliability wire contract:
// the same configuration twice must produce structurally identical
// lifetime reports (bit-equal floats), since sweep records and the
// serving layer's byte-identity guarantee sit on top of them.
func TestLifetimeReportDeterministic(t *testing.T) {
	stack := floorplan.MustBuild(floorplan.EXP2)
	b, err := workload.ByName("Web-med")
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := workload.Generate(workload.GenConfig{
		Bench: b, NumCores: stack.NumCores(), DurationS: 60, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := lifetimeRun(t, "DVFS_Rel", jobs, stack)
	b2 := lifetimeRun(t, "DVFS_Rel", jobs, stack)
	if !reflect.DeepEqual(a.Lifetime, b2.Lifetime) {
		t.Fatalf("lifetime reports differ between identical runs:\n%+v\nvs\n%+v", a.Lifetime, b2.Lifetime)
	}
}
