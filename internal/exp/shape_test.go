package exp

import (
	"testing"

	"repro/internal/floorplan"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestPaperShapeClaims makes the paper's qualitative claims (Section V)
// executable: the orderings the paper reports must hold in the
// reproduction. It runs a compact sweep (skipped with -short).
func TestPaperShapeClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("shape sweep is slow")
	}
	run := func(policyName string, e floorplan.Experiment, jobs []workload.Job, dpm bool) *sim.Result {
		t.Helper()
		stack := floorplan.MustBuild(e)
		pol, err := BuildPolicy(policyName, stack, 5)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := floorplan.SpecWithResistivity(e, 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.Config{StackSpec: &spec, Policy: pol, Jobs: jobs, DurationS: 240}
		if dpm {
			cfg.DPM = policy.DefaultDPM()
		}
		r, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	bench, err := workload.ByName("Web&DB")
	if err != nil {
		t.Fatal(err)
	}
	jobs8, err := workload.Generate(workload.GenConfig{Bench: bench, NumCores: 8, DurationS: 240, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	jobs16, err := workload.Generate(workload.GenConfig{Bench: bench, NumCores: 16, DurationS: 240, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}

	def1 := run("Default", floorplan.EXP1, jobs8, false)
	def3 := run("Default", floorplan.EXP3, jobs16, false)
	dvfs3 := run("DVFS_TT", floorplan.EXP3, jobs16, false)
	a3d3 := run("Adapt3D", floorplan.EXP3, jobs16, false)
	hyb3 := run("Adapt3D&DVFS_TT", floorplan.EXP3, jobs16, false)
	defDPM := run("Default", floorplan.EXP3, jobs16, true)

	// Claim (Section V-B): 4-layer stacks suffer far more hot spots than
	// 2-layer ones.
	if def3.Metrics.HotSpotPct <= def1.Metrics.HotSpotPct {
		t.Errorf("EXP-3 hot spots %.2f%% should exceed EXP-1's %.2f%%",
			def3.Metrics.HotSpotPct, def1.Metrics.HotSpotPct)
	}

	// Claim: thermally-reactive DVFS substantially reduces hot spots on
	// the 4-tier stack.
	if dvfs3.Metrics.HotSpotPct >= def3.Metrics.HotSpotPct*0.8 {
		t.Errorf("DVFS_TT %.2f%% should be well below Default %.2f%%",
			dvfs3.Metrics.HotSpotPct, def3.Metrics.HotSpotPct)
	}

	// Claim: Adapt3D reduces hot spots versus the default scheduler on
	// 4-tier stacks without a noticeable performance impact.
	if a3d3.Metrics.HotSpotPct >= def3.Metrics.HotSpotPct {
		t.Errorf("Adapt3D %.2f%% should be below Default %.2f%%",
			a3d3.Metrics.HotSpotPct, def3.Metrics.HotSpotPct)
	}
	delay := (a3d3.Sched.MeanResponseS - def3.Sched.MeanResponseS) / def3.Sched.MeanResponseS
	if delay > 0.10 {
		t.Errorf("Adapt3D delay %.1f%% is not negligible", 100*delay)
	}

	// Claim: the hybrid keeps (or improves) the DVFS policy's thermal
	// result.
	if hyb3.Metrics.HotSpotPct > dvfs3.Metrics.HotSpotPct*1.15 {
		t.Errorf("hybrid %.2f%% should track DVFS_TT %.2f%%",
			hyb3.Metrics.HotSpotPct, dvfs3.Metrics.HotSpotPct)
	}

	// Claim (Section V-B, Fig. 4): DPM reduces the occurrence of thermal
	// hot spots.
	if defDPM.Metrics.HotSpotPct >= def3.Metrics.HotSpotPct {
		t.Errorf("DPM hot spots %.2f%% should be below no-DPM %.2f%%",
			defDPM.Metrics.HotSpotPct, def3.Metrics.HotSpotPct)
	}

	// Claim (Section V-C): vertical gradients between adjacent layers
	// remain moderate. Ours run slightly above the paper's "few degrees"
	// because of the resistive die-level TIM (see the TIM1 comment in
	// thermal.DefaultParams), but
	// they must stay an order of magnitude below in-plane peaks.
	if def3.Metrics.MeanVerticalC > 10 {
		t.Errorf("mean vertical gradient %.2f °C too large", def3.Metrics.MeanVerticalC)
	}

	// Claim (Section V-D): DPM causes the large temperature cycles.
	defDPMcyc := defDPM.Metrics.CyclePct
	if defDPMcyc < def3.Metrics.CyclePct {
		t.Errorf("cycles with DPM %.2f%% should be at least no-DPM %.2f%%",
			defDPMcyc, def3.Metrics.CyclePct)
	}
}
