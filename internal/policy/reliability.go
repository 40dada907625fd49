package policy

import (
	"repro/internal/power"
	"repro/internal/reliability"
	"repro/internal/workload"
)

// DVFSRel is the lifetime-aware DVFS policy ("DVFS_Rel"): it extends
// utilization-based DVFS with an online wear model. Each core's sensor
// stream feeds a streaming rainflow damage accumulator
// (reliability.Stream — the same Coffin-Manson accounting the sweep's
// lifetime tracker uses), and the policy balances accumulated cycling
// damage across cores two ways:
//
//   - Allocation: arriving jobs go to the least-loaded queue, ties
//     broken toward the least-damaged core, so wear spreads instead of
//     concentrating on whichever core the dispatcher habitually picks.
//   - Actuation: a core whose accumulated damage sits above the chip
//     mean by more than 10% runs one V/f step below its
//     demand-covering level, trading a little latency on the worn core
//     for shallower thermal swings exactly where fatigue is
//     accumulating fastest.
//
// Thermal emergencies still dominate: a core above the threshold steps
// down regardless of its wear ranking. Tick is allocation-free after
// the first call (fixed per-core streams and a reused level buffer),
// preserving the simulator's tick-loop allocation contract.
type DVFSRel struct {
	alloc   *Default
	streams []reliability.Stream
	damage  []float64       // per-core accumulated cycling damage
	lv      []power.VfLevel // reused TickDecision.Levels buffer
}

// wearMargin is the relative distance above mean damage at which
// DVFS_Rel throttles a core one extra step.
const wearMargin = 0.1

// NewDVFSRel returns the lifetime-aware DVFS policy.
func NewDVFSRel() *DVFSRel { return &DVFSRel{alloc: NewDefault()} }

// Name implements Policy.
func (p *DVFSRel) Name() string { return "DVFS_Rel" }

// AssignCore implements Policy: least-loaded, ties broken toward the
// core with the least accumulated cycling damage (before the first
// Tick there is no wear signal yet and allocation falls back to the
// baseline dispatcher).
func (p *DVFSRel) AssignCore(v *View, job workload.Job) int {
	if len(p.damage) != v.NumCores() {
		return p.alloc.AssignCore(v, job)
	}
	best := 0
	for c := 1; c < v.NumCores(); c++ {
		q, bq := v.QueueLens[c], v.QueueLens[best]
		if q < bq || (q == bq && p.damage[c] < p.damage[best]) {
			best = c
		}
	}
	return best
}

// Tick implements Policy.
func (p *DVFSRel) Tick(v *View) TickDecision {
	if err := validateView(v); err != nil {
		return TickDecision{}
	}
	d := p.alloc.Tick(v)
	n := v.NumCores()
	if len(p.lv) != n {
		p.lv = make([]power.VfLevel, n)
		p.damage = make([]float64, n)
		p.streams = make([]reliability.Stream, n)
		for c := range p.streams {
			p.streams[c].Init(reliability.DefaultCycling())
		}
	}
	mean := 0.0
	for c := 0; c < n; c++ {
		p.streams[c].Push(v.TempsC[c])
		p.damage[c] = p.streams[c].Damage()
		mean += p.damage[c]
	}
	mean /= float64(n)
	for c := 0; c < n; c++ {
		base := demandLevel(v, c)
		switch {
		case v.TempsC[c] > v.ThresholdC:
			// Emergency: keep stepping down from the current level.
			p.lv[c] = v.DVFS.Clamp(v.Levels[c] + 1)
		case mean > 0 && p.damage[c] > mean*(1+wearMargin):
			// Worn above the chip mean: one step below demand.
			p.lv[c] = v.DVFS.Clamp(base + 1)
		default:
			p.lv[c] = base
		}
	}
	d.Levels = p.lv
	return d
}
