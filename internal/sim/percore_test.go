package sim

import (
	"testing"

	"repro/internal/floorplan"
	"repro/internal/policy"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// TestPerCoreResidencyProbe compares the per-core hot residency of the
// Default and Adapt3D allocators on EXP-3 on the identical trace
// (calibration probe; run with -v for the per-core breakdown). It
// asserts the weak invariant that the thermally-aware allocator is not
// measurably worse than the thermally-blind baseline.
func TestPerCoreResidencyProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("probe is slow")
	}
	bench, _ := workload.ByName("Web&DB")
	stack := floorplan.MustBuild(floorplan.EXP3)
	jobs, err := workload.Generate(workload.GenConfig{Bench: bench, NumCores: 16, DurationS: 240, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	model, _ := thermal.NewBlockModel(stack, thermal.DefaultParams())
	cfg := policy.DefaultAdapt3DConfig()
	cfg.Seed = 5
	a3d, err := policy.NewAdapt3D(stack, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("alpha: %v", a3d.Alpha())
	hot := make(map[string]float64, 2)
	for _, pol := range []policy.Policy{policy.NewDefault(), a3d} {
		r, err := Run(Config{StackSpec: expSpec(t, floorplan.EXP3), Policy: pol, Jobs: jobs, DurationS: 240})
		if err != nil {
			t.Fatal(err)
		}
		hot[pol.Name()] = r.Metrics.HotSpotPct
		t.Logf("%-10s hot=%5.2f%% avgT=%.1f maxT=%.1f per-core=%v",
			pol.Name(), r.Metrics.HotSpotPct, r.Metrics.AvgCoreTempC, r.Metrics.MaxTempC, fmtPcts(r.Metrics.PerCoreHotPct))
	}
	probs := a3d.Probabilities()
	rounded := make([]float64, len(probs))
	for i, p := range probs {
		rounded[i] = float64(int(p*1000)) / 1000
	}
	t.Logf("final Adapt3D probabilities: %v", rounded)

	if hot["Adapt3D"] > hot["Default"]*1.05 {
		t.Errorf("Adapt3D hot spots %.2f%% exceed Default %.2f%% by more than 5%%",
			hot["Adapt3D"], hot["Default"])
	}
}

func fmtPcts(xs []float64) []int {
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = int(x + 0.5)
	}
	return out
}
