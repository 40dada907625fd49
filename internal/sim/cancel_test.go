package sim

import (
	"context"
	"errors"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/policy"
)

// TestRunCanceledContext verifies a run aborts at the first tick when
// its context is already canceled — the mechanism sweep orchestration
// uses to stop in-flight simulations promptly.
func TestRunCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, shortCfg(t, policy.NewDefault()))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext with canceled ctx: err = %v, want context.Canceled", err)
	}
}

// TestRunLiveContext verifies an uncanceled context does not perturb a
// run: the result matches a context-free run of the same config.
func TestRunLiveContext(t *testing.T) {
	base := testConfig(t, floorplan.EXP1, policy.NewDefault(), "Web-med", 10, 3)
	want, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	withCtx := base
	withCtx.Policy = policy.NewDefault()
	got, err := RunContext(context.Background(), withCtx)
	if err != nil {
		t.Fatal(err)
	}
	if got.EnergyJ != want.EnergyJ || got.Ticks != want.Ticks || got.Metrics.MaxTempC != want.Metrics.MaxTempC {
		t.Fatal("context-carrying run diverged from plain run")
	}
}
