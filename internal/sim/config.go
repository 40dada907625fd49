package sim

import (
	"context"
	"fmt"
	"io"

	"repro/internal/floorplan"
	"repro/internal/policy"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// Every run uses the paper's scheduler and metrics settings: each job
// migration adds migrationCostS seconds (1 ms) to the job's remaining
// work, and thermal cycles are counted over a sliding window of
// cycleWindowTicks ticks (10 s at the 100 ms tick).
const (
	migrationCostS   = 0.001
	cycleWindowTicks = 100
)

// Config describes one simulation run.
type Config struct {
	// StackSpec is the stack under simulation, built through
	// floorplan.StackSpec.Build. It is the one stack input the engine,
	// ModelKey, and Prewarm read: its content hash is the thermal
	// model's identity, so sweep batching and the shared model cache
	// work for every stack alike. Nil selects Exp below.
	StackSpec *floorplan.StackSpec
	// Exp and JointResistivityMKW are shorthand for a builtin stack,
	// used when StackSpec is nil: the experiment's shipped spec
	// (EXP-1..EXP-6; 0 selects EXP-1) with the TSV-adjusted interlayer
	// resistivity set explicitly (0 selects the paper's 0.23 m·K/W).
	// They resolve to StackSpec once, through
	// floorplan.SpecWithResistivity.
	Exp                 floorplan.Experiment
	JointResistivityMKW float64

	// Policy is the management policy under test (required).
	Policy policy.Policy
	// UseDPM composes the fixed-timeout sleep-state power manager with
	// the policy (the "with DPM" configurations of Figures 4-6).
	UseDPM bool
	// DPM overrides the default 300 ms timeout when UseDPM is set.
	DPM policy.DPM

	// Bench selects the workload; ignored when Jobs is provided.
	Bench workload.Benchmark
	// Jobs optionally replays a pre-generated trace so that different
	// policies see the identical arrival sequence.
	Jobs []workload.Job

	// DurationS is the simulated time (paper traces: 1800 s).
	DurationS float64
	// TickS is the sampling/scheduling interval (paper: 100 ms).
	TickS float64
	// Seed drives workload generation (when Jobs is nil).
	Seed int64

	// Sensors configures the core temperature sensors; the zero value
	// selects the paper's noise model. The thermal and power models are
	// always the paper's (thermal.DefaultParams, power.DefaultModel).
	Sensors thermal.SensorConfig

	// ThresholdC is the thermal emergency threshold (default 85 °C);
	// TprefC the preferred operating temperature (default 80 °C).
	ThresholdC float64
	TprefC     float64

	// GridRows/GridCols switch the thermal model to grid mode when both
	// are positive; block mode otherwise. Setting exactly one of them is
	// a validation error — a partially specified grid used to fall back
	// to block mode silently, which let batched sweeps warm or share the
	// wrong factorization (see ModelKey).
	GridRows, GridCols int

	// TrackLifetime attaches a streaming reliability.Tracker to the
	// per-block temperature field: every tick feeds the tracker's
	// allocation-free rainflow/electromigration accumulators, and the
	// run's Result carries the Lifetime wear report (per-block and
	// per-layer cycling damage, EM acceleration, relative MTTF). It
	// stores no cycle censuses, so its cost is constant in the run
	// length and every sweep run can afford it.
	TrackLifetime bool

	// TraceWriter, when non-nil, receives a per-tick CSV trace:
	// time_s, total power (W), then one temperature column per core.
	TraceWriter io.Writer

	// Observer, when non-nil, receives the per-tick observations (see
	// the Observer interface for the delivery order and the
	// cheap/non-blocking/no-retention contract). Compose several with
	// Observers; adapt bare functions with FuncObserver.
	Observer Observer

	// ctx, when non-nil, is polled once per simulated tick; canceling
	// it aborts the run with the context's error. It is set by
	// RunContext/RunBatchContext — cancellation flows through those
	// entry points, never through an exported field.
	ctx context.Context
}

// withDefaults fills in the paper's settings and validates.
func (c Config) withDefaults() (Config, error) {
	if c.Policy == nil {
		return c, fmt.Errorf("sim: config needs a policy")
	}
	c, err := c.withModelDefaults()
	if err != nil {
		return c, err
	}
	if c.DurationS == 0 {
		c.DurationS = 1800
	}
	if c.DurationS < 0 {
		return c, fmt.Errorf("sim: negative duration %g", c.DurationS)
	}
	if c.ThresholdC == 0 {
		c.ThresholdC = 85
	}
	if c.TprefC == 0 {
		c.TprefC = 80
	}
	if c.TprefC >= c.ThresholdC {
		return c, fmt.Errorf("sim: Tpref %g must be below threshold %g", c.TprefC, c.ThresholdC)
	}
	if c.UseDPM && c.DPM.TimeoutS == 0 {
		c.DPM = policy.DefaultDPM()
	}
	if c.Bench.Name == "" && c.Jobs == nil {
		b, err := workload.ByName("Web-med")
		if err != nil {
			return c, err
		}
		c.Bench = b
	}
	return c, nil
}

// withModelDefaults resolves and validates the fields that fix the
// thermal system (everything ModelKey reads): the Exp shorthand becomes
// StackSpec, the tick length defaults to the paper's 100 ms, and a
// partially specified grid is rejected.
func (c Config) withModelDefaults() (Config, error) {
	if (c.GridRows > 0) != (c.GridCols > 0) {
		return c, fmt.Errorf("sim: partial grid spec %dx%d: set both GridRows and GridCols (grid mode) or neither (block mode)", c.GridRows, c.GridCols)
	}
	if c.StackSpec == nil {
		e := c.Exp
		if e == 0 {
			e = floorplan.EXP1
		}
		spec, err := floorplan.SpecWithResistivity(e, c.JointResistivityMKW)
		if err != nil {
			return c, err
		}
		c.StackSpec = &spec
	}
	if c.TickS == 0 {
		c.TickS = 0.1
	}
	if c.TickS <= 0 {
		return c, fmt.Errorf("sim: non-positive tick %g", c.TickS)
	}
	return c, nil
}
