package policy

import "repro/internal/power"

// Forker is a policy that can clone its mutable decision state. The
// simulation engine's Fork and Restore require it: a fork, and so a
// checkpoint, must copy the policy's scratch (wear streams, probability
// state, locality tables) by value, or a restored run would diverge
// from an uninterrupted one. Fork must only read the receiver:
// concurrent session seeks clone one checkpoint's policy at once.
//
// Fork contract: the clone continues the decision sequence the parent
// would have produced — same observations in, same decisions out —
// while sharing no mutable state with it. TickDecision buffers are
// NOT shared either: each clone owns fresh ones (see TickDecision on
// buffer ownership). A Fork may return nil when the policy cannot be
// cloned (a Hybrid wrapping a non-Forker); TryFork folds that case
// into its ok result.
type Forker interface {
	Policy
	Fork() Policy
}

// TryFork clones p when it supports forking. The second result is
// false when p does not implement Forker or its Fork returns nil.
func TryFork(p Policy) (Policy, bool) {
	f, ok := p.(Forker)
	if !ok {
		return nil, false
	}
	c := f.Fork()
	return c, c != nil
}

// fork is the typed clone used by policies embedding a Default
// allocator.
func (d *Default) fork() *Default {
	f := &Default{lastCore: make(map[int]int, len(d.lastCore))}
	for k, v := range d.lastCore {
		f.lastCore[k] = v
	}
	return f
}

// reset drops the locality table in place, reusing the map. MPC
// rollout lanes call it between candidate evaluations.
func (d *Default) reset() { clear(d.lastCore) }

// Fork implements Forker.
func (d *Default) Fork() Policy { return d.fork() }

// Fork implements Forker. The gate/level buffers are per-tick
// scratch, rebuilt on first use, so only the allocator state copies.
func (p *CGate) Fork() Policy { return &CGate{alloc: p.alloc.fork()} }

// Fork implements Forker. DVFS_TT reads the current levels from the
// view, so the allocator is its only cross-tick state.
func (p *DVFSTT) Fork() Policy { return &DVFSTT{alloc: p.alloc.fork()} }

// Fork implements Forker.
func (p *DVFSUtil) Fork() Policy { return &DVFSUtil{alloc: p.alloc.fork()} }

// Fork implements Forker. The static floorplan assignment is copied so
// the fork does not recompute it (it is deterministic either way).
func (p *DVFSFLP) Fork() Policy {
	return &DVFSFLP{alloc: p.alloc.fork(), levels: append([]power.VfLevel(nil), p.levels...)}
}

// Fork implements Forker. Migr's slices are per-tick scratch.
func (p *Migr) Fork() Policy { return &Migr{alloc: p.alloc.fork()} }

// Fork implements Forker: wear streams and damage estimates copy by
// value. The level buffer is copied too — its length doubles as the
// "initialized" flag in Tick, and a fresh fork re-making it would also
// wipe the copied streams.
func (p *DVFSRel) Fork() Policy {
	f := &DVFSRel{alloc: p.alloc.fork()}
	f.streams = append(f.streams, p.streams...)
	f.damage = append(f.damage, p.damage...)
	f.lv = append(f.lv, p.lv...)
	return f
}

// Fork implements Forker: both halves must fork or the hybrid cannot
// (returns nil, which TryFork reports as not forkable).
func (h *Hybrid) Fork() Policy {
	a, ok := TryFork(h.Alloc)
	if !ok {
		return nil
	}
	d, ok := TryFork(h.DVFS)
	if !ok {
		return nil
	}
	return &Hybrid{Alloc: a, DVFS: d, name: h.name}
}
