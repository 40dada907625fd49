package policy

import (
	"fmt"

	"repro/internal/workload"
)

// Hybrid combines a job allocation policy (which owns AssignCore and may
// order migrations) with a DVFS policy (which owns the V/f levels and
// gating). Section III-C combines the best allocator, Adapt3D, with each
// of the DVFS policies.
type Hybrid struct {
	Alloc Policy
	DVFS  Policy
	name  string
	migs  []Migration // reused TickDecision.Migrations merge buffer
}

// NewHybrid composes two policies. The allocation policy's migrations
// and the DVFS policy's level/gate decisions are both applied; the
// allocation policy wins job placement.
func NewHybrid(alloc, dvfs Policy) (*Hybrid, error) {
	if alloc == nil || dvfs == nil {
		return nil, fmt.Errorf("policy: hybrid needs both an allocator and a DVFS policy")
	}
	return &Hybrid{
		Alloc: alloc,
		DVFS:  dvfs,
		name:  alloc.Name() + "&" + dvfs.Name(),
	}, nil
}

// Name implements Policy.
func (h *Hybrid) Name() string { return h.name }

// AssignCore implements Policy.
func (h *Hybrid) AssignCore(v *View, job workload.Job) int { return h.Alloc.AssignCore(v, job) }

// Tick implements Policy: merge both decisions.
func (h *Hybrid) Tick(v *View) TickDecision {
	da := h.Alloc.Tick(v)
	dd := h.DVFS.Tick(v)
	out := TickDecision{Levels: dd.Levels, Gate: dd.Gate}
	// Merge into the hybrid's own buffer: appending to da.Migrations
	// directly could grow into (and allocate away from) the allocator's
	// reused buffer, and the merged slice must stay policy-owned.
	h.migs = append(append(h.migs[:0], da.Migrations...), dd.Migrations...)
	if len(h.migs) > 0 {
		out.Migrations = h.migs
	}
	return out
}

// DPM is the dynamic power management layer of Section IV-B: a fixed
// timeout policy that puts a core into the sleep state once it has been
// idle longer than the timeout. It composes with any Policy (the
// "with DPM" rows of Figures 4-6). Waking is handled by the simulator
// when work is assigned to a sleeping core.
type DPM struct {
	// TimeoutS is the idle time after which a core sleeps.
	TimeoutS float64
}

// DefaultDPM uses a 300 ms timeout (three scheduling intervals), a
// typical fixed-timeout setting for server cores of this class.
func DefaultDPM() DPM { return DPM{TimeoutS: 0.3} }

// ShouldSleep reports whether a core idle for idleS seconds should enter
// the sleep state.
func (d DPM) ShouldSleep(idleS float64) bool {
	return d.TimeoutS > 0 && idleS >= d.TimeoutS
}
