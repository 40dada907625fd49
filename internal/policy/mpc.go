package policy

import (
	"math"

	"repro/internal/power"
	"repro/internal/workload"
)

// This file implements model-predictive DTM: instead of reacting to
// the current sensor reading (DVFS_TT) or an AR forecast of it, the
// MPC policies ask the simulator itself what each candidate action
// would do. Every decision epoch the policy enumerates K candidate
// actions, the engine replays each distinct candidate over a short
// horizon on a rollout lane (a copy of its tick state sharing the
// cached thermal factorization, so a lane costs state vectors rather
// than a factorization; the lanes advance in lockstep through one
// panel solve per tick), and the policy commits the winner. The engine
// side of the contract lives in sim (its rollout adapter); the policy
// side — the action vocabulary, the scoring interface, and the epoch
// loop — lives here.

// Action is one candidate the MPC policies ask the engine to roll
// out: a per-core V/f assignment, optionally with one head-swap job
// migration applied on the first horizon tick.
type Action struct {
	// Levels is the per-core V/f level held for the whole horizon.
	Levels []power.VfLevel
	// Migration, when non-nil, is applied once at the start of the
	// horizon (head move: running jobs swap).
	Migration *Migration
}

// RolloutScore is what a rollout lane reports back for one candidate.
type RolloutScore struct {
	// PeakTempC is the hottest core sample over the horizon.
	PeakTempC float64
	// WorstCycleDamage is the largest per-block Coffin-Manson damage
	// the horizon itself would add (reference-cycle equivalents).
	WorstCycleDamage float64
}

// Rollout evaluates candidate actions by simulation. The engine
// provides the implementation; Evaluate fills scores[i] for
// actions[i] over horizonTicks scheduling intervals from the current
// engine state. Implementations must be deterministic: the same
// engine state and actions produce the same scores, whatever order
// the candidates are evaluated in and however many of them repeat.
type Rollout interface {
	Evaluate(actions []Action, horizonTicks int, scores []RolloutScore) error
}

// Planner is a policy that plans by rollout. The simulation engine
// detects it at run setup and attaches its self-rollout adapter; a
// Planner must behave sensibly (fall back to a reactive rule) when no
// rollout was attached, so planners still work under harnesses that
// predate the checkpoint API.
type Planner interface {
	Policy
	AttachRollout(r Rollout)
}

// MPC is the shared machinery of MPC_Thermal and MPC_Rel. Candidates
// are enumerated fastest-first — the uniform assignment at every V/f
// level, holding the current assignment, and one hottest-to-coolest
// migration — so objective ties resolve toward performance, and the
// winner's levels are held until the next epoch. Between epochs a
// thermal emergency still reacts immediately (one V/f step down on
// the offending core per interval, like DVFS_TT), so a bad forecast
// cannot pin a core above threshold for a whole epoch.
//
// Determinism: candidate enumeration, scoring (by index), and
// tie-breaking (lowest index) are all order-fixed, so the same seed
// and state commit the same action — pinned by TestMPCDeterminism.
type MPC struct {
	// EpochTicks is the decision period (default 10 intervals): one
	// rollout evaluation per epoch, held in between.
	EpochTicks int

	name    string
	relObj  bool // optimize worst-block cycling damage, not peak temp
	rollout Rollout
	alloc   *Default

	held       []power.VfLevel // committed assignment, applied every tick
	sinceEpoch int             // ticks since the last rollout decision
	pendingMig bool
	mig        [1]Migration

	// Candidate scratch, reused across epochs.
	actions []Action
	scores  []RolloutScore
	candLv  [][]power.VfLevel
	lv      []power.VfLevel // reused TickDecision.Levels buffer
}

// mpcHorizonTicks is the rollout length per candidate: 5 intervals,
// 0.5 s at the paper's sampling rate.
const mpcHorizonTicks = 5

// NewMPCThermal returns the peak-temperature MPC policy: it commits
// the fastest candidate whose predicted peak stays at or below Tpref,
// or the coolest candidate when none does.
func NewMPCThermal() *MPC {
	return &MPC{name: "MPC_Thermal", EpochTicks: 10, alloc: NewDefault()}
}

// NewMPCRel returns the reliability MPC policy: among candidates whose
// predicted peak respects the emergency threshold it commits the one
// adding the least worst-block cycling damage over the horizon
// (fastest on ties), falling back to the coolest candidate when every
// rollout breaches the threshold.
func NewMPCRel() *MPC {
	return &MPC{name: "MPC_Rel", relObj: true, EpochTicks: 10, alloc: NewDefault()}
}

// Name implements Policy.
func (p *MPC) Name() string { return p.name }

// AssignCore implements Policy (baseline load-balancing dispatch; the
// planner's leverage is actuation, not placement).
func (p *MPC) AssignCore(v *View, job workload.Job) int { return p.alloc.AssignCore(v, job) }

// AttachRollout implements Planner.
func (p *MPC) AttachRollout(r Rollout) { p.rollout = r }

// Fork implements Forker. The attached rollout is engine-owned and
// deliberately NOT carried over — it replays the parent engine, which
// would be nonsense for the fork's host; the forking engine re-attaches
// its own (sim.Engine.Fork and Restore do).
func (p *MPC) Fork() Policy {
	f := &MPC{
		name:       p.name,
		relObj:     p.relObj,
		EpochTicks: p.EpochTicks,
		alloc:      p.alloc.fork(),
		sinceEpoch: p.sinceEpoch,
		pendingMig: p.pendingMig,
		mig:        p.mig,
	}
	f.held = append(f.held, p.held...)
	// lv doubles with held as the sized-per-run pair Tick checks; a
	// fork with held but no lv would emit an empty level vector.
	f.lv = make([]power.VfLevel, len(p.held))
	return f
}

// Tick implements Policy.
func (p *MPC) Tick(v *View) TickDecision {
	if err := validateView(v); err != nil {
		return TickDecision{}
	}
	n := v.NumCores()
	if len(p.held) != n {
		p.held = make([]power.VfLevel, n)
		copy(p.held, v.Levels)
		p.lv = make([]power.VfLevel, n)
		p.sinceEpoch = 0
	}
	if p.sinceEpoch == 0 {
		p.decide(v)
	}
	p.sinceEpoch++
	if p.sinceEpoch >= p.EpochTicks {
		p.sinceEpoch = 0
	}
	// Emergency override between epochs: the plan is a forecast, the
	// threshold is a constraint.
	for c := 0; c < n; c++ {
		if v.TempsC[c] > v.ThresholdC {
			p.held[c] = v.DVFS.Clamp(p.held[c] + 1)
		}
	}
	copy(p.lv, p.held)
	d := TickDecision{Levels: p.lv}
	if p.pendingMig {
		d.Migrations = p.mig[:1]
		p.pendingMig = false
	}
	return d
}

// decide runs one rollout epoch and commits the winning action.
func (p *MPC) decide(v *View) {
	if p.rollout == nil {
		p.reactiveFallback(v)
		return
	}
	k := p.buildCandidates(v)
	if err := p.rollout.Evaluate(p.actions[:k], mpcHorizonTicks, p.scores[:k]); err != nil {
		p.reactiveFallback(v)
		return
	}
	win := p.pickWinner(v, k)
	copy(p.held, p.actions[win].Levels)
	if m := p.actions[win].Migration; m != nil {
		p.mig[0] = *m
		p.pendingMig = true
	}
}

// buildCandidates fills the candidate scratch and returns the count:
// one uniform assignment per V/f level (fastest first), the held
// assignment, and the held assignment plus a hottest-to-coolest
// migration when one is meaningful.
func (p *MPC) buildCandidates(v *View) int {
	n := v.NumCores()
	levels := v.DVFS.Levels()
	k := levels + 2
	if cap(p.actions) < k {
		p.actions = make([]Action, k)
		p.scores = make([]RolloutScore, k)
		p.candLv = make([][]power.VfLevel, k)
		for i := range p.candLv {
			p.candLv[i] = make([]power.VfLevel, n)
		}
	}
	for l := 0; l < levels; l++ {
		for c := 0; c < n; c++ {
			p.candLv[l][c] = power.VfLevel(l)
		}
		p.actions[l] = Action{Levels: p.candLv[l]}
	}
	copy(p.candLv[levels], p.held)
	p.actions[levels] = Action{Levels: p.candLv[levels]}

	copy(p.candLv[levels+1], p.held)
	p.actions[levels+1] = Action{Levels: p.candLv[levels+1]}
	hot, cool := -1, 0
	for c := 0; c < n; c++ {
		if v.QueueLens[c] > 0 && (hot < 0 || v.TempsC[c] > v.TempsC[hot]) {
			hot = c
		}
		if v.TempsC[c] < v.TempsC[cool] {
			cool = c
		}
	}
	if hot >= 0 && hot != cool && v.TempsC[hot] > v.TempsC[cool] {
		p.mig[0] = Migration{From: hot, To: cool}
		p.actions[levels+1].Migration = &p.mig[0]
	}
	return k
}

// pickWinner selects the committed candidate index, order-fixed.
func (p *MPC) pickWinner(v *View, k int) int {
	if p.relObj {
		// Least added damage among threshold-respecting candidates;
		// candidate order (fastest first) breaks exact ties.
		best, bestDamage := -1, math.Inf(1)
		for i := 0; i < k; i++ {
			if p.scores[i].PeakTempC > v.ThresholdC {
				continue
			}
			if p.scores[i].WorstCycleDamage < bestDamage {
				best, bestDamage = i, p.scores[i].WorstCycleDamage
			}
		}
		if best >= 0 {
			return best
		}
		return p.coolest(k)
	}
	// Thermal objective: fastest candidate predicted to stay at or
	// below the preferred temperature.
	for i := 0; i < k; i++ {
		if p.scores[i].PeakTempC <= v.TprefC {
			return i
		}
	}
	return p.coolest(k)
}

func (p *MPC) coolest(k int) int {
	best := 0
	for i := 1; i < k; i++ {
		if p.scores[i].PeakTempC < p.scores[best].PeakTempC {
			best = i
		}
	}
	return best
}

// reactiveFallback covers epochs with no usable rollout: hold the
// demand-covering level per core (DVFS_Util's rule), so a planner
// without an attached rollout still behaves like a reasonable DVFS
// policy instead of freezing its last plan.
func (p *MPC) reactiveFallback(v *View) {
	for c := range p.held {
		p.held[c] = demandLevel(v, c)
	}
}

// HeldAction is the frozen policy a rollout lane runs: it applies one
// candidate action — the level assignment every tick, the migration
// only on the first — and dispatches arrivals with a baseline load
// balancer. Set rewinds it for the next candidate, resetting the
// dispatcher's locality table so every evaluation of the same action
// from the same state is identical (rollout lanes must be stateless
// across Evaluate calls or a restored engine would score candidates
// differently than an uninterrupted one).
type HeldAction struct {
	alloc  *Default
	levels []power.VfLevel
	mig    Migration
	hasMig bool
	first  bool
	migBuf [1]Migration
	lv     []power.VfLevel // reused TickDecision.Levels buffer
}

// NewHeldAction returns an empty lane policy; Set arms it.
func NewHeldAction() *HeldAction { return &HeldAction{alloc: NewDefault()} }

// Set arms the lane with one candidate action.
func (h *HeldAction) Set(a Action) {
	h.levels = append(h.levels[:0], a.Levels...)
	h.lv = append(h.lv[:0], a.Levels...)
	h.hasMig = a.Migration != nil
	if h.hasMig {
		h.mig = *a.Migration
	}
	h.first = true
	h.alloc.reset()
}

// Name implements Policy.
func (h *HeldAction) Name() string { return "MPC_Lane" }

// AssignCore implements Policy.
func (h *HeldAction) AssignCore(v *View, job workload.Job) int { return h.alloc.AssignCore(v, job) }

// Tick implements Policy.
func (h *HeldAction) Tick(v *View) TickDecision {
	if len(h.lv) != v.NumCores() {
		return TickDecision{}
	}
	copy(h.lv, h.levels)
	d := TickDecision{Levels: h.lv}
	if h.first && h.hasMig {
		h.migBuf[0] = h.mig
		d.Migrations = h.migBuf[:1]
	}
	h.first = false
	return d
}
