package sim

import (
	"math"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/policy"
	"repro/internal/power"
)

// TestEnginesSharePowerPlan pins where the power plan is compiled: once
// per NewEngine. A fork, a checkpoint restored into its host and every
// MPC rollout lane read the host's plan, and DegradeInterfaces keeps
// it, because the degraded stack shares the blocks it was compiled
// from: the engine's next power vector is, bit for bit, the one a plan
// freshly compiled on the degraded stack computes.
func TestEnginesSharePowerPlan(t *testing.T) {
	e, err := NewEngine(testConfig(t, floorplan.EXP2, policy.NewMPCRel(), "Web-med", 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	plan := e.plan
	if plan == nil {
		t.Fatal("NewEngine compiled no power plan")
	}
	stepTo := func(tick int) {
		t.Helper()
		for e.tickIdx < tick {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	lanesShare := func(when string) {
		t.Helper()
		if len(e.rollout.lanes) == 0 {
			t.Fatalf("%s: the planner's decision epochs built no lanes", when)
		}
		for i, l := range e.rollout.lanes {
			if l.eng.plan != plan {
				t.Errorf("%s: rollout lane %d compiled its own power plan", when, i)
			}
		}
	}
	stepTo(11)
	lanesShare("first epochs")

	ckpt, err := e.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if ckpt.plan != plan {
		t.Error("Fork compiled its own power plan")
	}
	stepTo(16)
	if err := e.Restore(ckpt); err != nil {
		t.Fatal(err)
	}
	if e.plan != plan {
		t.Error("Restore replaced the engine's power plan")
	}
	stepTo(27)
	lanesShare("after Restore")

	if err := e.DegradeInterfaces(4); err != nil {
		t.Fatal(err)
	}
	if e.plan != plan {
		t.Error("DegradeInterfaces replaced the engine's power plan")
	}
	prev := append([]float64(nil), e.blockTemps...)
	stepTo(e.tickIdx + 1)
	want := make([]float64, len(e.blockPower))
	in := power.ChipInput{Cores: e.coreIn, BlockTempsC: prev, AmbientC: e.model.Params.AmbientC}
	if err := paperPower.Plan(e.Stack()).ComputeInto(want, in); err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if math.Float64bits(e.blockPower[i]) != math.Float64bits(w) {
			t.Errorf("after DegradeInterfaces, block %d draws %g W, a plan of the degraded stack %g W", i, e.blockPower[i], w)
		}
	}
	stepTo(e.tickIdx + 10)
	lanesShare("after DegradeInterfaces")
}
