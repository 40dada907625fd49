package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/reliability"
	"repro/internal/sched"
)

// Snapshot is a value capture of every piece of engine state that
// changes tick to tick: thermal integrator state (raw rise, so the
// round trip is bitwise), scheduler queues, sensor stream position,
// meter accumulators, reliability wear, per-tick scratch, and a clone
// of the policy. It deliberately excludes the immutable run inputs —
// stack, thermal model, cached factorization, job trace, config — so a
// snapshot costs a few state vectors, not a model rebuild.
//
// A Snapshot may only be restored into an engine built from the same
// config shape (same stack, core count, tracking options); Restore
// validates and errors otherwise. The zero value is ready to use as a
// Snapshot destination, and its buffers are reused across captures, so
// a steady snapshot cadence settles to zero allocations per capture.
type Snapshot struct {
	valid   bool
	tickIdx int
	jobIdx  int

	resTicks     int
	sleepEntries int
	gatedTicks   int

	states     []power.CoreState
	levels     []power.VfLevel
	utils      []float64
	speeds     []float64
	mem        []float64
	queueLens  []int
	gated      []bool
	sleeping   []bool
	blockPower []float64
	nodeTemps  []float64
	blockTemps []float64
	coreTemps  []float64
	readings   []float64

	trRise      []float64
	sensorDraws uint64

	machine   sched.MachineState
	collector metrics.CollectorState
	energy    power.EnergyState
	lifetime  *reliability.TrackerState

	// pol is the policy clone; captured by the public Snapshot, absent
	// from internal rollout-lane captures (lanes keep their own frozen
	// policy).
	pol policy.Policy
}

// Ticks returns the number of completed ticks at capture time.
func (s *Snapshot) Ticks() int { return s.resTicks }

// Snapshot captures the engine's full mutable state into s, reusing
// s's buffers. It requires a policy that supports forking (all
// roster policies do — see policy.Forker); the snapshot owns a clone
// of the policy state, so later mutations of the live policy do not
// leak into it.
func (e *Engine) Snapshot(s *Snapshot) error {
	pol, ok := policy.TryFork(e.cfg.Policy)
	if !ok {
		return fmt.Errorf("sim: policy %s does not support snapshotting (implement policy.Forker)", e.cfg.Policy.Name())
	}
	e.snapshotInto(s)
	s.pol = pol
	return nil
}

// Restore rewinds the engine to a previously captured snapshot. The
// engine's policy is replaced by a fresh clone of the snapshot's, so
// restoring twice from the same snapshot yields two identical resumed
// runs; a planning policy gets the engine's rollout re-attached.
// After a successful Restore the engine continues bitwise-identically
// to the run the snapshot was taken from.
func (e *Engine) Restore(s *Snapshot) error {
	if s.pol == nil {
		return fmt.Errorf("sim: snapshot carries no policy state (not captured by Engine.Snapshot?)")
	}
	pol, ok := policy.TryFork(s.pol)
	if !ok {
		return fmt.Errorf("sim: snapshot policy %s does not support cloning", s.pol.Name())
	}
	if err := e.restoreFrom(s); err != nil {
		return err
	}
	e.cfg.Policy = pol
	e.attachRollout()
	return nil
}

// Fork returns an independent engine continuing from the receiver's
// current state: immutable inputs (stack, thermal model, cached
// factorization, job trace) are shared, every piece of mutable state —
// integrator, queues, meters, wear, policy — is copied. Parent and
// fork then advance independently, and concurrently (the shared
// factorization is read-only under the buffered solves). The fork
// drops the parent's trace writer, observer, and context: it is a
// rollout vehicle, not a resumed reporting run.
func (e *Engine) Fork() (*Engine, error) {
	pol, ok := policy.TryFork(e.cfg.Policy)
	if !ok {
		return nil, fmt.Errorf("sim: policy %s does not support forking (implement policy.Forker)", e.cfg.Policy.Name())
	}
	f, err := e.fork(pol)
	if err != nil {
		return nil, err
	}
	f.attachRollout()
	return f, nil
}

// snapshotInto captures everything except the policy (see Snapshot
// for the public contract; rollout lanes capture with the policy left
// out because each lane runs its own frozen action policy).
func (e *Engine) snapshotInto(s *Snapshot) {
	s.tickIdx = e.tickIdx
	s.jobIdx = e.jobIdx
	s.resTicks = e.res.Ticks
	s.sleepEntries = e.res.SleepEntries
	s.gatedTicks = e.res.GatedTicks

	s.states = append(s.states[:0], e.states...)
	s.levels = append(s.levels[:0], e.levels...)
	s.utils = append(s.utils[:0], e.utils...)
	s.speeds = append(s.speeds[:0], e.speeds...)
	s.mem = append(s.mem[:0], e.mem...)
	s.queueLens = append(s.queueLens[:0], e.queueLens...)
	s.gated = append(s.gated[:0], e.gated...)
	s.sleeping = append(s.sleeping[:0], e.sleeping...)
	s.blockPower = append(s.blockPower[:0], e.blockPower...)
	s.nodeTemps = append(s.nodeTemps[:0], e.nodeTemps...)
	s.blockTemps = append(s.blockTemps[:0], e.blockTemps...)
	s.coreTemps = append(s.coreTemps[:0], e.coreTemps...)
	s.readings = append(s.readings[:0], e.readings...)

	if len(s.trRise) != len(e.nodeTemps) {
		s.trRise = make([]float64, len(e.nodeTemps))
	}
	// StateInto cannot fail on a length-matched buffer.
	_ = e.tr.StateInto(s.trRise)
	s.sensorDraws = e.sensors.Draws()

	e.machine.Save(&s.machine)
	e.collector.Save(&s.collector)
	e.energy.Save(&s.energy)
	if e.lifetime != nil {
		if s.lifetime == nil {
			s.lifetime = &reliability.TrackerState{}
		}
		e.lifetime.Save(s.lifetime)
	} else {
		s.lifetime = nil
	}
	s.pol = nil
	s.valid = true
}

// restoreFrom rewinds everything except the policy. All restores copy
// INTO the engine's existing buffers — the batched driver captures
// slice headers at construction, so reassigning them would silently
// detach a batch lane from its panel solve.
func (e *Engine) restoreFrom(s *Snapshot) error {
	if !s.valid {
		return fmt.Errorf("sim: restore from empty snapshot")
	}
	if len(s.states) != e.n || len(s.blockPower) != len(e.blockPower) || len(s.nodeTemps) != len(e.nodeTemps) {
		return fmt.Errorf("sim: snapshot shape mismatch (%d cores, %d blocks, %d nodes vs engine %d, %d, %d)",
			len(s.states), len(s.blockPower), len(s.nodeTemps), e.n, len(e.blockPower), len(e.nodeTemps))
	}
	if (s.lifetime == nil) != (e.lifetime == nil) {
		return fmt.Errorf("sim: snapshot reliability-tracking shape does not match engine config")
	}

	e.tickIdx = s.tickIdx
	e.jobIdx = s.jobIdx
	e.res.Ticks = s.resTicks
	e.res.SleepEntries = s.sleepEntries
	e.res.GatedTicks = s.gatedTicks

	copy(e.states, s.states)
	copy(e.levels, s.levels)
	copy(e.utils, s.utils)
	copy(e.speeds, s.speeds)
	copy(e.mem, s.mem)
	copy(e.queueLens, s.queueLens)
	copy(e.gated, s.gated)
	copy(e.sleeping, s.sleeping)
	copy(e.blockPower, s.blockPower)
	copy(e.nodeTemps, s.nodeTemps)
	copy(e.blockTemps, s.blockTemps)
	copy(e.coreTemps, s.coreTemps)
	copy(e.readings, s.readings)

	if err := e.tr.SetState(s.trRise); err != nil {
		return err
	}
	if e.sensors.Draws() != s.sensorDraws {
		e.sensors.Reseed(s.sensorDraws)
	}

	if err := e.machine.Load(&s.machine); err != nil {
		return err
	}
	if err := e.collector.Load(&s.collector); err != nil {
		return err
	}
	e.energy.Load(&s.energy)
	if e.lifetime != nil {
		if err := e.lifetime.Load(s.lifetime); err != nil {
			return err
		}
	}
	return nil
}

// fork builds a lane engine around pol: fresh mutable state sharing
// the receiver's immutable inputs, then a snapshot/restore round trip
// to transplant the current state.
func (e *Engine) fork(pol policy.Policy) (*Engine, error) {
	cfg := e.cfg
	cfg.Policy = pol
	cfg.TraceWriter = nil
	cfg.ctx = nil
	cfg.Observer = nil

	f, err := newEngineState(cfg, e.model, e.jobs)
	if err != nil {
		return nil, err
	}
	f.sensors = e.sensors.Fork()
	f.tr = e.tr.Fork()
	f.freqScale = e.freqScale // immutable per run, safe to share

	var s Snapshot
	e.snapshotInto(&s)
	if err := f.restoreFrom(&s); err != nil {
		return nil, err
	}
	return f, nil
}

// rolloutSim is the engine's implementation of policy.Rollout: it
// checkpoints the host engine mid-decision, replays each candidate
// action on forked lane engines over the horizon, and scores them.
// Lanes are built lazily on the first Evaluate and reused across
// epochs; candidate i's score is written to scores[i] regardless of
// which lane or goroutine computed it, so the evaluation is
// deterministic under any parallel schedule.
type rolloutSim struct {
	host  *Engine
	snap  Snapshot
	lanes []*rolloutLane
	errs  []error
}

// rolloutLane is one reusable candidate evaluator: a forked engine
// frozen on a HeldAction policy plus a private scoring tracker reset
// per candidate (so damage scores cover only the horizon).
type rolloutLane struct {
	eng     *Engine
	pol     *policy.HeldAction
	tracker *reliability.Tracker
}

func newRolloutLane(host *Engine) (*rolloutLane, error) {
	pol := policy.NewHeldAction()
	eng, err := host.fork(pol)
	if err != nil {
		return nil, err
	}
	tracker, err := reliability.NewTracker(host.model.NumBlocks(), host.cfg.TickS)
	if err != nil {
		return nil, err
	}
	return &rolloutLane{eng: eng, pol: pol, tracker: tracker}, nil
}

// Evaluate implements policy.Rollout.
func (r *rolloutSim) Evaluate(actions []policy.Action, horizonTicks int, scores []policy.RolloutScore) error {
	if len(scores) < len(actions) {
		return fmt.Errorf("sim: rollout got %d score slots for %d actions", len(scores), len(actions))
	}
	if horizonTicks <= 0 {
		return fmt.Errorf("sim: rollout horizon must be positive, got %d", horizonTicks)
	}
	r.host.snapshotInto(&r.snap)

	par := runtime.GOMAXPROCS(0)
	if par > len(actions) {
		par = len(actions)
	}
	if par < 1 {
		par = 1
	}
	for len(r.lanes) < par {
		lane, err := newRolloutLane(r.host)
		if err != nil {
			return err
		}
		r.lanes = append(r.lanes, lane)
	}
	if len(r.errs) < par {
		r.errs = make([]error, par)
	}
	for w := range r.errs {
		r.errs[w] = nil
	}

	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lane := r.lanes[w]
			for i := w; i < len(actions); i += par {
				sc, err := lane.evaluate(&r.snap, actions[i], horizonTicks)
				if err != nil {
					r.errs[w] = err
					return
				}
				scores[i] = sc
			}
		}(w)
	}
	wg.Wait()
	for _, err := range r.errs[:par] {
		if err != nil {
			return err
		}
	}
	return nil
}

// evaluate rolls one candidate out: rewind the lane to the host's
// checkpoint, freeze the action, advance up to horizonTicks (clipped
// at the end of the run), and score peak temperature, added worst-block
// cycling damage, and energy.
func (l *rolloutLane) evaluate(snap *Snapshot, a policy.Action, horizonTicks int) (policy.RolloutScore, error) {
	var sc policy.RolloutScore
	e := l.eng
	if err := e.restoreFrom(snap); err != nil {
		return sc, err
	}
	l.pol.Set(a)
	l.tracker.Reset()
	startJ := e.energy.TotalJ()
	peak := math.Inf(-1)
	for t := 0; t < horizonTicks && e.tickIdx < e.nTicks; t++ {
		if err := e.tick(e.tickIdx); err != nil {
			return sc, err
		}
		for _, c := range e.coreTemps {
			if c > peak {
				peak = c
			}
		}
		if err := l.tracker.Observe(e.blockTemps); err != nil {
			return sc, err
		}
	}
	if math.IsInf(peak, -1) {
		// Horizon clipped to zero ticks (end of run): score the current
		// field so the decision is still well-defined.
		for _, c := range e.coreTemps {
			if c > peak {
				peak = c
			}
		}
	}
	worst := 0.0
	for i := range e.blockTemps {
		if d := l.tracker.Damage(i); d > worst {
			worst = d
		}
	}
	sc.PeakTempC = peak
	sc.WorstCycleDamage = worst
	sc.EnergyJ = e.energy.TotalJ() - startJ
	return sc, nil
}
