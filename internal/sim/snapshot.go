package sim

import (
	"fmt"
	"math"
	"slices"

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
	cfg := e.cfg
	cfg.Policy = pol
	f, err := e.fork(cfg)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	e.snapshotInto(&s)
	if err := f.restoreFrom(&s); err != nil {
		return nil, err
	}
	f.attachRollout()
	return f, nil
}

// snapshotInto captures everything except the policy (see Snapshot
// for the public contract; rollout lanes capture with the policy left
// out because each lane runs its own frozen action policy).
func (e *Engine) snapshotInto(s *Snapshot) {
	e.saveTick(s)
	s.sensorDraws = e.sensors.Draws()
	e.collector.Save(&s.collector)
	if e.lifetime != nil {
		if s.lifetime == nil {
			s.lifetime = &reliability.TrackerState{}
		}
		e.lifetime.Save(s.lifetime)
	} else {
		s.lifetime = nil
	}
	s.pol = nil
}

// saveTick captures the state a tick reads and advances: position,
// per-tick vectors, integrator, scheduler and energy meter. That is
// all a rollout lane restores; the reporting state — sensor stream,
// metrics, wear — is snapshotInto's.
func (e *Engine) saveTick(s *Snapshot) {
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
	e.machine.Save(&s.machine)
	e.energy.Save(&s.energy)
	s.valid = true
}

// restoreFrom rewinds everything except the policy. All restores copy
// INTO the engine's existing buffers — the batched driver captures
// slice headers at construction, so reassigning them would silently
// detach a batch lane from its panel solve.
func (e *Engine) restoreFrom(s *Snapshot) error {
	if (s.lifetime == nil) != (e.lifetime == nil) {
		return fmt.Errorf("sim: snapshot reliability-tracking shape does not match engine config")
	}
	if err := e.restoreTick(s); err != nil {
		return err
	}
	if e.sensors.Draws() != s.sensorDraws {
		e.sensors.Reseed(s.sensorDraws)
	}
	if err := e.collector.Load(&s.collector); err != nil {
		return err
	}
	if e.lifetime != nil {
		return e.lifetime.Load(s.lifetime)
	}
	return nil
}

// restoreTick rewinds the state saveTick captures.
func (e *Engine) restoreTick(s *Snapshot) error {
	if !s.valid {
		return fmt.Errorf("sim: restore from empty snapshot")
	}
	if len(s.states) != e.n || len(s.blockPower) != len(e.blockPower) || len(s.nodeTemps) != len(e.nodeTemps) {
		return fmt.Errorf("sim: snapshot shape mismatch (%d cores, %d blocks, %d nodes vs engine %d, %d, %d)",
			len(s.states), len(s.blockPower), len(s.nodeTemps), e.n, len(e.blockPower), len(e.nodeTemps))
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
	if err := e.machine.Load(&s.machine); err != nil {
		return err
	}
	e.energy.Load(&s.energy)
	return nil
}

// fork builds an engine on cfg around the receiver's immutable inputs
// (thermal model, job trace, frequency scales), with its own mutable
// half and an integrator and sensor bank forked from the receiver's;
// the caller transplants the state it needs.
func (e *Engine) fork(cfg Config) (*Engine, error) {
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
	return f, nil
}

// rolloutSim is the engine's implementation of policy.Rollout. Each
// epoch it captures the host's tick state, gives every distinct
// candidate a lane, and advances the lanes in lockstep on the calling
// goroutine, their thermal steps fused into one panel solve over the
// host's factorization.
// A candidate that repeats an earlier one takes that one's score.
// Lanes and the one driver over all of them are built on the first
// Evaluate and reused; an epoch with k distinct candidates steps the
// driver's first k lanes.
type rolloutSim struct {
	host  *Engine
	snap  Snapshot
	lanes []*rolloutLane
	d     *batchDriver // over every lane's engine, in lane order
	// dup[i] is the earlier candidate actions[i] repeats, or -1.
	dup []int
}

// drop discards the lanes and their driver together; the next Evaluate
// builds both afresh. Live events call it when they replace an input
// the lanes share with the host.
func (r *rolloutSim) drop() { r.lanes, r.d = nil, nil }

// rolloutLane is one reusable candidate evaluator: an engine frozen on
// a HeldAction policy, one rainflow stream per block reset per
// candidate (so damage scores cover only the horizon), and the
// candidate's running peak and starting energy. The lane engine keeps
// no wear tracker of its own and never reads its sensors or records
// metrics.
type rolloutLane struct {
	eng     *Engine
	pol     *policy.HeldAction
	streams []reliability.Stream
	peak    float64
	startJ  float64
}

// grow builds lanes until there are n, and the driver over all of them
// when it added any.
func (r *rolloutSim) grow(n int) error {
	if len(r.lanes) >= n {
		return nil
	}
	for len(r.lanes) < n {
		cfg := r.host.cfg
		pol := policy.NewHeldAction()
		cfg.Policy = pol
		cfg.TrackLifetime = false
		eng, err := r.host.fork(cfg)
		if err != nil {
			return err
		}
		// A lane records no metrics; its collector would be most of
		// its memory.
		eng.collector = nil
		r.lanes = append(r.lanes, &rolloutLane{eng: eng, pol: pol, streams: make([]reliability.Stream, r.host.model.NumBlocks())})
	}
	engines := make([]*Engine, len(r.lanes))
	for i, l := range r.lanes {
		engines[i] = l.eng
	}
	d, err := newBatchDriver(engines)
	if err != nil {
		return err
	}
	r.d = d
	return nil
}

// Evaluate implements policy.Rollout: rewind one lane per distinct
// candidate to the host's state, advance the lanes up to horizonTicks
// (clipped at the end of the run), and score peak temperature, added
// worst-block cycling damage, and energy.
func (r *rolloutSim) Evaluate(actions []policy.Action, horizonTicks int, scores []policy.RolloutScore) error {
	if len(scores) < len(actions) {
		return fmt.Errorf("sim: rollout got %d score slots for %d actions", len(scores), len(actions))
	}
	if horizonTicks <= 0 {
		return fmt.Errorf("sim: rollout horizon must be positive, got %d", horizonTicks)
	}
	if len(actions) == 0 {
		return nil
	}
	if err := r.grow(len(actions)); err != nil {
		return err
	}
	r.host.saveTick(&r.snap)
	r.dup = r.dup[:0]
	k := 0
	for i, a := range actions {
		r.dup = append(r.dup, -1)
		for j := 0; j < i; j++ {
			if r.dup[j] < 0 && sameAction(a, actions[j]) {
				r.dup[i] = j
				break
			}
		}
		if r.dup[i] < 0 {
			if err := r.lanes[k].start(&r.snap, a); err != nil {
				return err
			}
			k++
		}
	}
	lanes := r.lanes[:k]
	end := min(r.host.tickIdx+horizonTicks, r.host.nTicks)
	for tick := r.host.tickIdx; tick < end; tick++ {
		for _, l := range lanes {
			if err := l.eng.tickPre(tick); err != nil {
				return err
			}
		}
		if err := r.d.step(k); err != nil {
			return err
		}
		for _, l := range lanes {
			if err := l.observe(); err != nil {
				return err
			}
		}
	}
	k = 0
	for i := range actions {
		if j := r.dup[i]; j >= 0 {
			scores[i] = scores[j]
			continue
		}
		scores[i] = lanes[k].score()
		k++
	}
	return nil
}

// sameAction reports whether a and b hold the same levels and the same
// migration, so their rollouts from one state are identical.
func sameAction(a, b policy.Action) bool {
	if !slices.Equal(a.Levels, b.Levels) || (a.Migration == nil) != (b.Migration == nil) {
		return false
	}
	return a.Migration == nil || *a.Migration == *b.Migration
}

// start rewinds the lane to the host's tick state and arms it with a.
func (l *rolloutLane) start(snap *Snapshot, a policy.Action) error {
	if err := l.eng.restoreTick(snap); err != nil {
		return err
	}
	l.pol.Set(a)
	for i := range l.streams {
		l.streams[i].Init(reliability.DefaultCycling())
	}
	l.peak = math.Inf(-1)
	l.startJ = l.eng.energy.TotalJ()
	return nil
}

// observe reads one lockstep tick back: block and core temperatures,
// the running peak, and the scoring streams.
func (l *rolloutLane) observe() error {
	e := l.eng
	if err := e.readback(); err != nil {
		return err
	}
	for _, c := range e.coreTemps {
		if c > l.peak {
			l.peak = c
		}
	}
	for i, c := range e.blockTemps {
		l.streams[i].Push(c)
	}
	return nil
}

// score reports the lane's candidate after its horizon.
func (l *rolloutLane) score() policy.RolloutScore {
	e := l.eng
	peak := l.peak
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
	for i := range l.streams {
		if d := l.streams[i].Damage(); d > worst {
			worst = d
		}
	}
	return policy.RolloutScore{PeakTempC: peak, WorstCycleDamage: worst, EnergyJ: e.energy.TotalJ() - l.startJ}
}
