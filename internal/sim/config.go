package sim

import (
	"context"
	"fmt"

	"repro/internal/floorplan"
	"repro/internal/policy"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// Every run uses the paper's settings: a 100 ms sampling and scheduling
// interval (tickS), an 85 °C thermal emergency threshold (thresholdC),
// which is also the hot-spot threshold of the metrics, and an 80 °C
// preferred operating temperature (tprefC). Each job migration adds
// migrationCostS seconds (1 ms) to the job's remaining work, and
// thermal cycles are counted over a sliding window of cycleWindowTicks
// ticks (10 s).
const (
	tickS            = 0.1
	thresholdC       = 85
	tprefC           = 80
	migrationCostS   = 0.001
	cycleWindowTicks = 100
)

// Config describes one simulation run: the inputs of a prepared run.
// exp.JobConfig is the one mapping from a sweep job to a Config.
type Config struct {
	// StackSpec is the stack under simulation (required), built through
	// floorplan.StackSpec.Build. It is the one stack input the engine,
	// ModelKey, and Prewarm read: its content hash is the thermal
	// model's identity, so sweep batching and the shared model cache
	// work for every stack alike. floorplan.SpecWithResistivity gives a
	// builtin experiment's spec.
	StackSpec *floorplan.StackSpec

	// Policy is the management policy under test (required).
	Policy policy.Policy
	// DPM is the fixed-timeout sleep-state power manager composed with
	// the policy (the "with DPM" configurations of Figures 4-6;
	// policy.DefaultDPM is the paper's 300 ms setting). The zero value
	// runs without a power manager.
	DPM policy.DPM

	// Jobs is the job trace the run replays, so that different policies
	// see the identical arrival sequence (workload.Generate makes one).
	// A nil or empty trace is an idle run.
	Jobs []workload.Job

	// DurationS is the simulated time (paper traces: 1800 s, the
	// default).
	DurationS float64

	// Sensors configures the core temperature sensors; the zero value
	// gives ideal sensors (no noise, no quantization). The thermal and
	// power models are always the paper's (thermal.DefaultParams,
	// power.DefaultModel).
	Sensors thermal.SensorConfig

	// GridRows/GridCols switch the thermal model to grid mode when both
	// are positive; block mode when both are zero. Setting exactly one
	// of them, or either to a negative count, is a validation error: a
	// silent fallback to block mode would let batched sweeps warm or
	// share the wrong factorization (see ModelKey).
	GridRows, GridCols int

	// TrackLifetime attaches a streaming reliability.Tracker to the
	// per-block temperature field: every tick feeds the tracker's
	// allocation-free rainflow/electromigration accumulators, and the
	// run's Result carries the Lifetime wear report (per-block and
	// per-layer cycling damage, EM acceleration, relative MTTF). It
	// stores no cycle censuses, so its cost is constant in the run
	// length and every sweep run can afford it.
	TrackLifetime bool

	// Observer, when non-nil, receives the per-tick observations (see
	// the Observer interface for the delivery order and the
	// cheap/non-blocking/no-retention contract). Adapt bare functions
	// with FuncObserver.
	Observer Observer

	// ctx, when non-nil, is polled once per simulated tick; canceling
	// it aborts the run with the context's error. It is set by
	// RunContext/RunBatchContext — cancellation flows through those
	// entry points, never through an exported field.
	ctx context.Context
}

// withDefaults fills in the default duration and validates.
func (c Config) withDefaults() (Config, error) {
	if c.Policy == nil {
		return c, fmt.Errorf("sim: config needs a policy")
	}
	if err := c.checkModel(); err != nil {
		return c, err
	}
	if c.DurationS == 0 {
		c.DurationS = 1800
	}
	if c.DurationS < 0 {
		return c, fmt.Errorf("sim: negative duration %g", c.DurationS)
	}
	if c.DPM.TimeoutS < 0 {
		return c, fmt.Errorf("sim: negative DPM timeout %g", c.DPM.TimeoutS)
	}
	return c, nil
}

// checkModel validates the fields that fix the thermal system
// (everything ModelKey reads): a stack spec is required, and a
// negative or partially specified grid is rejected.
func (c Config) checkModel() error {
	if c.StackSpec == nil {
		return fmt.Errorf("sim: config needs a stack spec")
	}
	if c.GridRows < 0 || c.GridCols < 0 {
		return fmt.Errorf("sim: negative grid spec %dx%d", c.GridRows, c.GridCols)
	}
	if (c.GridRows > 0) != (c.GridCols > 0) {
		return fmt.Errorf("sim: partial grid spec %dx%d: set both GridRows and GridCols (grid mode) or neither (block mode)", c.GridRows, c.GridCols)
	}
	return nil
}
