package sim

import (
	"testing"

	"repro/internal/floorplan"
	"repro/internal/policy"
)

// TestObserveTickProgress verifies the tick observation fires once per
// completed tick, in order, and does not perturb the simulation itself.
func TestObserveTickProgress(t *testing.T) {
	base := testConfig(t, floorplan.EXP1, policy.NewDefault(), "Web-med", 10, 3)
	want, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	var calls []int
	hooked := base
	hooked.Policy = policy.NewDefault()
	hooked.Observer = FuncObserver{Tick: func(n int) { calls = append(calls, n) }}
	got, err := Run(hooked)
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != got.Ticks {
		t.Fatalf("ObserveTick fired %d times for %d ticks", len(calls), got.Ticks)
	}
	for i, n := range calls {
		if n != i+1 {
			t.Fatalf("ObserveTick call %d reported %d ticks completed, want %d", i, n, i+1)
		}
	}
	if got.EnergyJ != want.EnergyJ || got.Ticks != want.Ticks || got.Metrics.MaxTempC != want.Metrics.MaxTempC {
		t.Fatal("observed run diverged from plain run")
	}
}
