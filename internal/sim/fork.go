package sim

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/policy"
	"repro/internal/reliability"
)

// Fork returns an independent engine continuing from the receiver's
// current state: immutable inputs (stack, thermal model, cached
// factorization, power plan, job trace) are shared, every piece of
// mutable state — integrator, queues, meters, wear, policy — is
// copied. Parent and fork then advance independently, and
// concurrently (the shared factorization is read-only under the
// buffered solves). The fork drops the parent's observer and context:
// it is a rollout vehicle, not a resumed reporting run. An unstepped
// fork is a checkpoint: Restore rewinds an engine to it, as often as
// needed.
func (e *Engine) Fork() (*Engine, error) {
	f, err := e.fork(e.cfg)
	if err != nil {
		return nil, err
	}
	if err := f.Restore(e); err != nil {
		return nil, err
	}
	return f, nil
}

// Restore rewinds the engine to src's state, typically an unstepped
// Fork kept as a checkpoint. src must have the engine's shape (stack,
// core count, tracking options), and the engine's own immutable inputs
// (thermal model, job trace) must be the ones src ran on: a session
// seek re-applies the structural events before it restores. The
// engine takes a fresh clone of src's policy, so two restores from one
// source resume two identical runs, and a planning policy gets the
// engine's rollout re-attached. Restore only reads src, so concurrent
// restores may share one. Afterwards the engine continues
// bitwise-identically to src.
func (e *Engine) Restore(src *Engine) error {
	pol, ok := policy.TryFork(src.cfg.Policy)
	if !ok {
		return fmt.Errorf("sim: policy %s does not support forking (implement policy.Forker)", src.cfg.Policy.Name())
	}
	if err := e.copyState(src); err != nil {
		return err
	}
	e.cfg.Policy = pol
	e.res.PolicyName = pol.Name()
	e.attachRollout()
	return nil
}

// copyState copies all of src's mutable state but the policy:
// copyTick's tick state, the sensor stream position, the meters and
// the wear.
func (e *Engine) copyState(src *Engine) error {
	if (src.lifetime == nil) != (e.lifetime == nil) {
		return fmt.Errorf("sim: engines differ in reliability tracking")
	}
	if err := e.copyTick(src); err != nil {
		return err
	}
	e.sensors.CopyFrom(src.sensors)
	if err := e.collector.CopyFrom(src.collector); err != nil {
		return err
	}
	if e.lifetime != nil {
		return e.lifetime.CopyFrom(src.lifetime)
	}
	return nil
}

// copyTick copies the state a tick reads and advances: position,
// result counters, per-tick vectors, integrator, scheduler and energy
// meter. That is all a rollout lane takes from its host. The vectors
// are copied into the engine's own buffers, never reassigned: a batch
// driver holds their slice headers.
func (e *Engine) copyTick(src *Engine) error {
	if src.n != e.n || len(src.blockPower) != len(e.blockPower) || len(src.nodeTemps) != len(e.nodeTemps) {
		return fmt.Errorf("sim: engine shape mismatch (%d cores, %d blocks, %d nodes vs %d, %d, %d)",
			src.n, len(src.blockPower), len(src.nodeTemps), e.n, len(e.blockPower), len(e.nodeTemps))
	}
	e.tickIdx = src.tickIdx
	e.jobIdx = src.jobIdx
	e.res.Ticks = src.res.Ticks
	e.res.SleepEntries = src.res.SleepEntries
	e.res.GatedTicks = src.res.GatedTicks

	copy(e.states, src.states)
	copy(e.levels, src.levels)
	copy(e.utils, src.utils)
	copy(e.speeds, src.speeds)
	copy(e.mem, src.mem)
	copy(e.queueLens, src.queueLens)
	copy(e.gated, src.gated)
	copy(e.sleeping, src.sleeping)
	copy(e.blockPower, src.blockPower)
	copy(e.nodeTemps, src.nodeTemps)
	copy(e.blockTemps, src.blockTemps)
	copy(e.coreTemps, src.coreTemps)
	copy(e.readings, src.readings)

	if err := e.tr.CopyStateFrom(src.tr); err != nil {
		return err
	}
	if err := e.machine.CopyFrom(src.machine); err != nil {
		return err
	}
	*e.energy = *src.energy
	return nil
}

// fork builds an engine on cfg around the receiver's immutable inputs
// (thermal model, job trace, frequency scales, power plan), with its
// own mutable half: an integrator on the model's memoized
// factorization for the tick, so it stays batchable with the
// receiver's, and its own sensor bank. The caller copies in the state
// it needs.
func (e *Engine) fork(cfg Config) (*Engine, error) {
	cfg.ctx = nil
	cfg.Observer = nil
	f, err := newEngineState(cfg, e.model, e.jobs)
	if err != nil {
		return nil, err
	}
	if f.tr, err = e.model.NewTransient(tickS, nil); err != nil {
		return nil, err
	}
	f.freqScale = e.freqScale // immutable per run, safe to share
	f.plan = e.plan
	return f, nil
}

// rolloutSim is the engine's implementation of policy.Rollout. Each
// epoch it gives every distinct candidate a lane, copies the host's
// tick state into it, and advances the lanes in lockstep on the calling
// goroutine, their thermal steps fused into one panel solve over the
// host's factorization.
// A candidate that repeats an earlier one takes that one's score.
// Lanes and the one driver over all of them are built on the first
// Evaluate and reused; an epoch with k distinct candidates steps the
// driver's first k lanes.
type rolloutSim struct {
	host  *Engine
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
// candidate's running peak. The lane engine keeps no wear tracker of
// its own and never reads its sensors or records metrics.
type rolloutLane struct {
	eng     *Engine
	pol     *policy.HeldAction
	streams []reliability.Stream
	peak    float64
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
// (clipped at the end of the run), and score peak temperature and
// added worst-block cycling damage.
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
			if err := r.lanes[k].start(r.host, a); err != nil {
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

// start copies the host's tick state into the lane and arms it with a.
func (l *rolloutLane) start(host *Engine, a policy.Action) error {
	if err := l.eng.copyTick(host); err != nil {
		return err
	}
	l.pol.Set(a)
	for i := range l.streams {
		l.streams[i].Init(reliability.DefaultCycling())
	}
	l.peak = math.Inf(-1)
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
	return policy.RolloutScore{PeakTempC: peak, WorstCycleDamage: worst}
}
