package policy

import (
	"sort"

	"repro/internal/power"
	"repro/internal/workload"
)

// DVFSTT is DVFS with Temperature Trigger (Section III-A): when a core's
// temperature exceeds the threshold, its V/f setting is lowered one step
// per scheduling interval; when it is below, the setting is raised one
// step per interval. Every core scales independently.
type DVFSTT struct {
	alloc *Default
	lv    []power.VfLevel // reused TickDecision.Levels buffer
}

// NewDVFSTT returns the temperature-triggered DVFS policy.
func NewDVFSTT() *DVFSTT { return &DVFSTT{alloc: NewDefault()} }

// Name implements Policy.
func (p *DVFSTT) Name() string { return "DVFS_TT" }

// AssignCore implements Policy.
func (p *DVFSTT) AssignCore(v *View, job workload.Job) int { return p.alloc.AssignCore(v, job) }

// Tick implements Policy.
func (p *DVFSTT) Tick(v *View) TickDecision {
	if err := validateView(v); err != nil {
		return TickDecision{}
	}
	d := p.alloc.Tick(v)
	if len(p.lv) != v.NumCores() {
		p.lv = make([]power.VfLevel, v.NumCores())
	}
	for c := range p.lv {
		cur := v.Levels[c]
		if v.TempsC[c] > v.ThresholdC {
			p.lv[c] = v.DVFS.Clamp(cur + 1)
		} else {
			p.lv[c] = v.DVFS.Clamp(cur - 1)
		}
	}
	d.Levels = p.lv
	return d
}

// DVFSUtil is utilization-based DVFS (Section III-A): it observes the
// core workload in the last interval and, if the core is under-utilized,
// selects the lowest V/f setting that still covers the observed demand.
// It is performance-oriented and thermally oblivious.
type DVFSUtil struct {
	alloc *Default
	lv    []power.VfLevel // reused TickDecision.Levels buffer
}

// demandHeadroom inflates observed demand before DVFS_Util, DVFS_Rel
// and MPC's reactive fallback choose a level, so that small load
// increases do not immediately saturate the core.
const demandHeadroom = 1.1

// demandLevel is the demand-covering level rule DVFS_Util, DVFS_Rel's
// base level and MPC's reactive fallback share: a backlogged core runs
// at full speed (level 0), any other at the lowest level that covers
// its last-interval demand, normalized to the default frequency and
// inflated by demandHeadroom (LowestLevelFor clamps it to [0, 1]).
func demandLevel(v *View, c int) power.VfLevel {
	if v.QueueLens[c] > 1 {
		return 0
	}
	demand := v.Utils[c] * v.DVFS.FreqScale(v.Levels[c]) * demandHeadroom
	return v.DVFS.LowestLevelFor(demand)
}

// NewDVFSUtil returns the utilization-based DVFS policy.
func NewDVFSUtil() *DVFSUtil { return &DVFSUtil{alloc: NewDefault()} }

// Name implements Policy.
func (p *DVFSUtil) Name() string { return "DVFS_Util" }

// AssignCore implements Policy.
func (p *DVFSUtil) AssignCore(v *View, job workload.Job) int { return p.alloc.AssignCore(v, job) }

// Tick implements Policy.
func (p *DVFSUtil) Tick(v *View) TickDecision {
	if err := validateView(v); err != nil {
		return TickDecision{}
	}
	d := p.alloc.Tick(v)
	if len(p.lv) != v.NumCores() {
		p.lv = make([]power.VfLevel, v.NumCores())
	}
	for c := range p.lv {
		p.lv[c] = demandLevel(v, c)
	}
	d.Levels = p.lv
	return d
}

// DVFSFLP is DVFS with floorplan considerations (Section III-A): cores
// whose location makes them more susceptible to hot spots — laterally
// central in 2D, and on layers far from the heat sink in 3D — statically
// receive lower V/f settings.
type DVFSFLP struct {
	alloc  *Default
	levels []power.VfLevel // static per-core assignment, computed lazily
}

// NewDVFSFLP returns the floorplan-aware DVFS policy.
func NewDVFSFLP() *DVFSFLP { return &DVFSFLP{alloc: NewDefault()} }

// Name implements Policy.
func (p *DVFSFLP) Name() string { return "DVFS_FLP" }

// AssignCore implements Policy.
func (p *DVFSFLP) AssignCore(v *View, job workload.Job) int { return p.alloc.AssignCore(v, job) }

// Tick implements Policy.
func (p *DVFSFLP) Tick(v *View) TickDecision {
	if err := validateView(v); err != nil {
		return TickDecision{}
	}
	d := p.alloc.Tick(v)
	if p.levels == nil || len(p.levels) != v.NumCores() {
		p.levels = flpLevels(v)
	}
	// The static assignment is returned directly: TickDecision buffers
	// stay policy-owned and the engine copies them before the next tick.
	d.Levels = p.levels
	return d
}

// flpLevels ranks cores by hot-spot susceptibility and assigns the
// slowest setting to the most susceptible third, the middle setting to
// the next third, and full speed to the rest.
func flpLevels(v *View) []power.VfLevel {
	n := v.NumCores()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return v.Stack.HotSusceptibility(order[a]) > v.Stack.HotSusceptibility(order[b])
	})
	lv := make([]power.VfLevel, n)
	slow := v.DVFS.Clamp(power.VfLevel(v.DVFS.Levels() - 1))
	mid := v.DVFS.Clamp(1)
	for rank, c := range order {
		switch {
		case rank < n/3:
			lv[c] = slow
		case rank < 2*n/3:
			lv[c] = mid
		default:
			lv[c] = 0
		}
	}
	return lv
}

// Migr is the thermal migration policy (Section III-B): when a core
// exceeds the threshold, its running job moves to the coolest core that
// has not already received a migrated job this tick; if the coolest core
// is busy, the jobs swap. It extends core-hopping/activity migration
// [11], [10].
type Migr struct {
	alloc *Default
	// Per-tick scratch, reused so the hot loop stays allocation-free.
	hot  []int
	used []bool
	migs []Migration
}

// NewMigr returns the migration policy.
func NewMigr() *Migr { return &Migr{alloc: NewDefault()} }

// Name implements Policy.
func (p *Migr) Name() string { return "Migr" }

// AssignCore implements Policy.
func (p *Migr) AssignCore(v *View, job workload.Job) int { return p.alloc.AssignCore(v, job) }

// Tick implements Policy.
func (p *Migr) Tick(v *View) TickDecision {
	if err := validateView(v); err != nil {
		return TickDecision{}
	}
	var d TickDecision
	// Hot cores, hottest first.
	hot := p.hot[:0]
	for c := 0; c < v.NumCores(); c++ {
		if v.TempsC[c] > v.ThresholdC && v.QueueLens[c] > 0 {
			hot = append(hot, c)
		}
	}
	p.hot = hot
	if len(hot) == 0 {
		return d
	}
	// Stable insertion sort, hottest first: hot is at most NumCores
	// entries and sort.SliceStable's reflection machinery would allocate
	// on exactly the thermally interesting ticks.
	for i := 1; i < len(hot); i++ {
		for j := i; j > 0 && v.TempsC[hot[j]] > v.TempsC[hot[j-1]]; j-- {
			hot[j], hot[j-1] = hot[j-1], hot[j]
		}
	}
	if len(p.used) != v.NumCores() {
		p.used = make([]bool, v.NumCores())
	}
	for c := range p.used {
		p.used[c] = false
	}
	for _, h := range hot {
		p.used[h] = true
	}
	p.migs = p.migs[:0]
	for _, h := range hot {
		// Coolest not-yet-used core, scanned inline (a closure through
		// coolestCore would escape and allocate).
		target := -1
		for c := range v.TempsC {
			if p.used[c] {
				continue
			}
			if target < 0 || v.TempsC[c] < v.TempsC[target] {
				target = c
			}
		}
		if target < 0 || v.TempsC[target] >= v.TempsC[h] {
			break
		}
		p.used[target] = true
		p.migs = append(p.migs, Migration{From: h, To: target})
	}
	if len(p.migs) > 0 {
		d.Migrations = p.migs
	}
	return d
}
