package sim

import (
	"testing"

	"repro/internal/floorplan"
	"repro/internal/policy"
)

// TestCalibrationProbe prints the thermal operating envelope of the
// Default policy on the heaviest workload across the four stacks. Run
// with -v to inspect the absolute values; it asserts only the weak
// physical orderings used for calibration.
func TestCalibrationProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration probe is slow")
	}
	var hot []float64
	for _, name := range []string{"Web-high", "Web&DB", "Web-med"} {
		for _, e := range floorplan.AllExperiments() {
			r, err := Run(testConfig(t, e, policy.NewDefault(), name, 300, 1))
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%v Default %-8s: hot=%6.2f%% grad=%6.2f%% cyc=%6.2f%% maxT=%.1f avgT=%.1f vertMax=%.2f power=%.1fW resp=%.3fs done=%d",
				e, name, r.Metrics.HotSpotPct, r.Metrics.GradientPct, r.Metrics.CyclePct,
				r.Metrics.MaxTempC, r.Metrics.AvgCoreTempC, r.Metrics.MaxVerticalC,
				r.AvgPowerW, r.Sched.MeanResponseS, r.JobsCompleted)
			if name == "Web-high" {
				hot = append(hot, r.Metrics.HotSpotPct)
			}
		}
	}
	// 4-layer stacks must be at least as hot-spot-prone as their 2-layer
	// counterparts.
	if hot[2] < hot[0] || hot[3] < hot[1] {
		t.Errorf("4-layer stacks should have >= hot spots: EXP1 %.2f EXP2 %.2f EXP3 %.2f EXP4 %.2f",
			hot[0], hot[1], hot[2], hot[3])
	}
}
