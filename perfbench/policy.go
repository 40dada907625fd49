package main

import (
	"time"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// policyStats accumulates one run's policy call times. It is owned by
// the goroutine driving the run (the engine calls its policy from one
// goroutine), so it needs no locking.
type policyStats struct {
	tick, assign   time.Duration
	ticks, assigns int
	// assignments logs (tick, job, core) of every dispatch when log is
	// set, for replaying the scheduler layer.
	log         bool
	assignments []assignment
}

type assignment struct {
	tick int
	job  workload.Job
	core int
}

// timedPolicy forwards every call to the wrapped policy and times
// Tick and AssignCore. It forwards policy.Forker too (the fork shares
// the stats), so snapshot-capable engines behave exactly as with the
// bare policy.
type timedPolicy struct {
	inner policy.Policy
	st    *policyStats
}

// timedPlanner additionally forwards policy.Planner, so the engine
// attaches its rollout to the wrapped MPC policy exactly as it would to
// the bare one. Only planners get this type: a wrapper claiming to be a
// Planner around a reactive policy would change what the engine does.
type timedPlanner struct{ timedPolicy }

// wrapPolicy returns p wrapped for timing into st.
func wrapPolicy(p policy.Policy, st *policyStats) policy.Policy {
	t := timedPolicy{inner: p, st: st}
	if _, ok := p.(policy.Planner); ok {
		return &timedPlanner{t}
	}
	return &t
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) AssignCore(v *policy.View, j workload.Job) int {
	t := time.Now()
	c := p.inner.AssignCore(v, j)
	p.st.assign += time.Since(t)
	p.st.assigns++
	if p.st.log {
		p.st.assignments = append(p.st.assignments, assignment{tick: p.st.ticks, job: j, core: c})
	}
	return c
}

func (p *timedPolicy) Tick(v *policy.View) policy.TickDecision {
	t := time.Now()
	d := p.inner.Tick(v)
	p.st.tick += time.Since(t)
	p.st.ticks++
	return d
}

// Fork implements policy.Forker; it returns nil, like a Hybrid over a
// non-forkable half, when the wrapped policy cannot fork.
func (p *timedPolicy) Fork() policy.Policy {
	f, ok := policy.TryFork(p.inner)
	if !ok {
		return nil
	}
	return wrapPolicy(f, p.st)
}

// AttachRollout implements policy.Planner.
func (p *timedPlanner) AttachRollout(r policy.Rollout) {
	p.inner.(policy.Planner).AttachRollout(r)
}

// tempCapture is a sim.Observer that copies every tick's block and core
// temperatures, for replaying the downstream layers on real inputs.
type tempCapture struct {
	block, core []float64
}

var _ sim.Observer = (*tempCapture)(nil)

func (c *tempCapture) ObserveTick(int) {}

func (c *tempCapture) ObserveTemps(block, core []float64) {
	c.block = append(c.block, block...)
	c.core = append(c.core, core...)
}
