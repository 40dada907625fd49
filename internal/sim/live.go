package sim

// Live-session event application: the mutators internal/session invokes
// between completed ticks of a stepped engine. Every mutator runs at a
// tick boundary (after tickPost of tick t-1, before tickPre of tick t),
// is deterministic — applying the same mutation at the same boundary of
// an identically-configured engine reproduces the run bitwise — and
// invalidates any MPC rollout lanes whose shared inputs it replaces.

import (
	"fmt"

	"repro/internal/floorplan"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/workload"
)

// Stack returns the floorplan stack the engine is currently simulating.
// After DegradeInterfaces this is the degraded clone, so policies built
// against it (session policy swaps) see the chip as it now is.
func (e *Engine) Stack() *floorplan.Stack { return e.model.Stack }

// TickS returns the sampling interval in seconds.
func (e *Engine) TickS() float64 { return e.cfg.TickS }

// SetPolicy swaps the management policy at the current tick boundary.
// The new policy starts from its freshly-constructed state (it has
// observed none of the run so far), exactly as a replay constructing
// the same policy at the same boundary would have it.
func (e *Engine) SetPolicy(p policy.Policy) error {
	if p == nil {
		return fmt.Errorf("sim: SetPolicy needs a policy")
	}
	e.cfg.Policy = p
	e.res.PolicyName = p.Name()
	// Any rollout lanes belong to the previous policy's planner; a new
	// planner gets fresh lanes lazily on its first Evaluate.
	e.rollout = nil
	e.attachRollout()
	return nil
}

// SpliceJobs replaces the not-yet-arrived tail of the job trace at the
// given tick boundary: jobs arriving before tick*TickS are kept (the
// dispatched prefix must not change under the scheduler), and jobs from
// the replacement trace arriving at or after the boundary are appended.
// The boundary may not precede the engine's current position. Appended
// jobs are re-IDed past the kept jobs' IDs so identities stay unique.
func (e *Engine) SpliceJobs(tick int, replacement []workload.Job) error {
	if tick < e.tickIdx {
		return fmt.Errorf("sim: SpliceJobs at tick %d behind the engine's boundary %d", tick, e.tickIdx)
	}
	cut := float64(tick) * e.cfg.TickS
	spliced := make([]workload.Job, 0, len(e.jobs)+len(replacement))
	maxID := -1
	for _, j := range e.jobs {
		if j.ArrivalS < cut {
			spliced = append(spliced, j)
			if j.ID > maxID {
				maxID = j.ID
			}
		}
	}
	if e.jobIdx > len(spliced) {
		return fmt.Errorf("sim: %d jobs dispatched but only %d survive a splice at tick %d", e.jobIdx, len(spliced), tick)
	}
	for _, j := range replacement {
		if j.ArrivalS >= cut {
			maxID++
			j.ID = maxID
			spliced = append(spliced, j)
		}
	}
	e.jobs = spliced
	e.res.JobsGenerated = len(spliced)
	// Rollout lanes share the host's jobs slice; rebuild them lazily.
	if e.rollout != nil {
		e.rollout.drop()
	}
	return nil
}

// DegradeInterfaces scales every interlayer bonding resistivity by
// factor (>1 models TSV/bond failure concentrating vertical heat), then
// rebuilds the thermal model around the degraded stack and transplants
// the integrator state bitwise, so the temperature trajectory is
// continuous across the event. Geometry is unchanged — only interface
// physics — so every other subsystem keeps its buffers. The degraded
// model is private to this engine (and its forks): it is never entered
// in the shared model cache, and on the cached solver path it memoizes
// its own factorization.
func (e *Engine) DegradeInterfaces(factor float64) error {
	if factor <= 0 {
		return fmt.Errorf("sim: interface degradation factor %g must be positive", factor)
	}
	ns := *e.model.Stack
	ns.InterlayerResistivityMKW *= factor
	if len(ns.Interfaces) > 0 {
		ns.Interfaces = make([]floorplan.InterfaceProps, len(ns.Interfaces))
		copy(ns.Interfaces, e.model.Stack.Interfaces)
		for i := range ns.Interfaces {
			// Zero falls back to the stack-level value, already scaled.
			if ns.Interfaces[i].ResistivityMKW > 0 {
				ns.Interfaces[i].ResistivityMKW *= factor
			}
		}
	}
	model, err := newModel(&ns, &e.cfg)
	if err != nil {
		return fmt.Errorf("sim: degraded stack: %w", err)
	}
	if model.NumNodes != len(e.nodeTemps) || model.NumBlocks() != len(e.blockTemps) {
		return fmt.Errorf("sim: degraded model shape changed (%d nodes, %d blocks vs %d, %d)",
			model.NumNodes, model.NumBlocks(), len(e.nodeTemps), len(e.blockTemps))
	}
	tr, err := model.NewTransientWith(e.cfg.TickS, nil, e.cfg.Solver)
	if err != nil {
		return err
	}
	rise := make([]float64, len(e.nodeTemps))
	if err := e.tr.StateInto(rise); err != nil {
		return err
	}
	if err := tr.SetState(rise); err != nil {
		return err
	}
	e.model = model
	e.tr = tr
	e.view.Stack = &ns
	// Lanes share the old stack/model/integrator; rebuild them lazily.
	if e.rollout != nil {
		e.rollout.drop()
	}
	return nil
}

// ForceMigration applies one migration at the current tick boundary,
// exactly as if the policy had returned it from Tick: head swap
// (Migrate) or tail move (MoveTail), migration cost charged, and the
// target core woken if it was sleeping. Migrating from an empty queue
// is a no-op, matching the policy path.
func (e *Engine) ForceMigration(m policy.Migration) error {
	var err error
	if m.Tail {
		err = e.machine.MoveTail(m.From, m.To)
	} else {
		err = e.machine.Migrate(m.From, m.To)
	}
	if err != nil {
		return err
	}
	if e.machine.QueueLen(m.To) > 0 && e.sleeping[m.To] {
		e.sleeping[m.To] = false
	}
	return nil
}

// TickState is a point-in-time view of the engine's actuation state at
// a tick boundary, for session frame streaming. All slices are owned by
// the TickState and reused across TickStateInto calls, so a steady
// cadence performs no allocations after the first capture.
type TickState struct {
	// TimeS is the simulated time at the boundary (completed ticks x
	// the sampling interval).
	TimeS float64
	// PowerW is the last interval's total chip power.
	PowerW float64
	// Levels holds the per-core DVFS levels in force.
	Levels []power.VfLevel
	// Gated marks cores the policy clock-gated last interval.
	Gated []bool
	// Sleeping marks cores in the DPM sleep state.
	Sleeping []bool
	// QueueLens holds the per-core run-queue lengths.
	QueueLens []int
	// Utils holds the per-core utilization of the last interval.
	Utils []float64
}

// TickStateInto captures the engine's current actuation state into s,
// reusing s's buffers.
func (e *Engine) TickStateInto(s *TickState) {
	s.TimeS = float64(e.tickIdx) * e.cfg.TickS
	s.PowerW = power.Total(e.blockPower)
	s.Levels = append(s.Levels[:0], e.levels...)
	s.Gated = append(s.Gated[:0], e.gated...)
	s.Sleeping = append(s.Sleeping[:0], e.sleeping...)
	if cap(s.QueueLens) < e.n {
		s.QueueLens = make([]int, e.n)
	}
	s.QueueLens = s.QueueLens[:e.n]
	e.machine.QueueLensInto(s.QueueLens)
	s.Utils = append(s.Utils[:0], e.utils...)
}
