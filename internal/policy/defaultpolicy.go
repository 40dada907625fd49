package policy

import (
	"repro/internal/power"
	"repro/internal/workload"
)

// Default is the paper's baseline: the dynamic load balancing dispatcher
// of Solaris SUN-OS (Section V). An incoming thread goes to the core it
// ran on previously when possible (locality); otherwise to the queue
// with the least pending work. At runtime, a significant imbalance
// between queues triggers thread migration toward balance. It is
// thermally oblivious.
type Default struct {
	// lastCore remembers where a job's "process" last ran, emulating the
	// Solaris locality heuristic (keyed by job ID modulo a small table).
	lastCore map[int]int
	// mig is the reused one-slot migration buffer for the rebalancing
	// decision (TickDecision buffers are policy-owned, see TickDecision).
	mig [1]Migration
}

// imbalanceThreshold is the queue-length difference that triggers a
// rebalancing move.
const imbalanceThreshold = 2

// NewDefault returns the baseline load balancer.
func NewDefault() *Default {
	return &Default{lastCore: make(map[int]int)}
}

// Name implements Policy.
func (d *Default) Name() string { return "Default" }

// AssignCore implements Policy: locality first, then least-loaded.
func (d *Default) AssignCore(v *View, job workload.Job) int {
	// Threads of the same process (we approximate process identity by
	// job-ID locality) return to their previous core for cache warmth as
	// long as its queue is not significantly longer than the shortest
	// one — the Solaris dispatcher's locality preference.
	slot := job.ID % 64
	if home, ok := d.lastCore[slot]; ok && home < v.NumCores() {
		minQ := v.QueueLens[0]
		for _, q := range v.QueueLens[1:] {
			if q < minQ {
				minQ = q
			}
		}
		if v.QueueLens[home] <= minQ+1 {
			return home
		}
	}
	c := leastLoaded(v.QueueLens, -1)
	d.lastCore[slot] = c
	return c
}

// Tick implements Policy: migrate one job per interval from the longest
// to the shortest queue when the imbalance is significant.
func (d *Default) Tick(v *View) TickDecision {
	if err := validateView(v); err != nil {
		return TickDecision{}
	}
	longest, shortest := 0, 0
	for c := 1; c < v.NumCores(); c++ {
		if v.QueueLens[c] > v.QueueLens[longest] {
			longest = c
		}
		if v.QueueLens[c] < v.QueueLens[shortest] {
			shortest = c
		}
	}
	if v.QueueLens[longest]-v.QueueLens[shortest] >= imbalanceThreshold {
		d.mig[0] = Migration{From: longest, To: shortest, Tail: true}
		return TickDecision{Migrations: d.mig[:]}
	}
	return TickDecision{}
}

// CGate is the clock-gating policy (Section III-A, after [8]): every core
// runs at the default V/f until it reaches the thermal threshold; the
// offending core is stalled with its clock gated, and execution resumes
// in the next sampling interval once it has cooled below the threshold.
type CGate struct {
	alloc *Default
	gate  []bool          // reused TickDecision.Gate buffer
	lv    []power.VfLevel // reused TickDecision.Levels buffer
}

// NewCGate returns the clock gating policy.
func NewCGate() *CGate { return &CGate{alloc: NewDefault()} }

// Name implements Policy.
func (p *CGate) Name() string { return "CGate" }

// AssignCore implements Policy (thermally oblivious allocation).
func (p *CGate) AssignCore(v *View, job workload.Job) int { return p.alloc.AssignCore(v, job) }

// Tick implements Policy.
func (p *CGate) Tick(v *View) TickDecision {
	if err := validateView(v); err != nil {
		return TickDecision{}
	}
	d := p.alloc.Tick(v)
	if len(p.gate) != v.NumCores() {
		p.gate = make([]bool, v.NumCores())
		// All cores stay at the default V/f setting (level 0).
		p.lv = make([]power.VfLevel, v.NumCores())
	}
	for c := range p.gate {
		p.gate[c] = v.TempsC[c] > v.ThresholdC
	}
	d.Gate = p.gate
	d.Levels = p.lv
	return d
}
