package sim

import (
	"cmp"
	"context"
	"errors"
	"slices"

	"repro/internal/thermal"
)

// batchDriver advances its first k of K engines in lockstep: per tick
// it runs each of those engines' pre-thermal phase, fuses their
// implicit-Euler solves into one thermal.TransientBatch panel solve
// over the batch's first k lanes, then runs each post-thermal phase.
// Callers order the engines longest run first, so the runs still going
// at any tick are always a prefix and a retired run is never stepped
// again. Engines that cannot share a panel solve (a single engine, or
// engines of different thermal systems) step their integrators one
// after another instead, which is always equivalent. All per-tick
// state (the destination and power slice headers included) is wired at
// construction, so the lockstep tick performs no heap allocations —
// the same contract the sequential engine tick keeps.
type batchDriver struct {
	engines []*Engine
	batch   *thermal.TransientBatch // nil: each engine steps alone
	dsts    [][]float64
	powers  [][]float64
}

// newBatchDriver wraps already-constructed engines into a lockstep
// driver.
func newBatchDriver(engines []*Engine) (*batchDriver, error) {
	d := &batchDriver{engines: engines}
	if len(engines) == 1 {
		return d, nil
	}
	trs := make([]*thermal.Transient, len(engines))
	for i, e := range engines {
		trs[i] = e.tr
	}
	batch, err := thermal.NewTransientBatch(trs)
	if errors.Is(err, thermal.ErrNotBatchable) {
		return d, nil
	}
	if err != nil {
		return nil, err
	}
	d.batch = batch
	d.dsts = make([][]float64, len(engines))
	d.powers = make([][]float64, len(engines))
	for i, e := range engines {
		d.dsts[i] = e.nodeTemps
		d.powers[i] = e.blockPower
	}
	return d, nil
}

// tick advances the first k engines by one sampling interval.
func (d *batchDriver) tick(tick, k int) error {
	engines := d.engines[:k]
	for _, e := range engines {
		if err := e.tickPre(tick); err != nil {
			return err
		}
	}
	if err := d.step(k); err != nil {
		return err
	}
	for _, e := range engines {
		if err := e.tickPost(tick); err != nil {
			return err
		}
	}
	return nil
}

// step advances the first k engines' thermal networks by one interval
// under the power their pre-thermal phases left in blockPower.
func (d *batchDriver) step(k int) error {
	if d.batch != nil {
		return d.batch.StepInto(d.dsts[:k], d.powers[:k])
	}
	for _, e := range d.engines[:k] {
		if err := e.tr.StepInto(e.nodeTemps, e.blockPower); err != nil {
			return err
		}
	}
	return nil
}

// RunBatchContext executes K co-scheduled simulations in lockstep, fusing
// their per-tick thermal solves into one blocked panel solve over the
// shared factorization (runs over the same stack geometry, parameters,
// and tick length share one automatically). Each run keeps
// its own engine — policy, scheduler, power model, metrics,
// reliability tracking, and every TickDecision stay fully independent —
// so the results are bitwise identical to stepping each config's
// engine alone; only the number of triangular-solve traversals per
// tick changes. Runs may differ in duration: a run retires at its last
// tick and the others go on without it. Configs whose runs cannot
// share a factorization (mixed stacks or tick lengths) step their
// integrators one after another in the same lockstep.
//
// One context governs every run in the batch, polled once per
// simulated tick. The first error or cancellation aborts the whole
// batch, consistent with a sweep treating its group as one unit of
// work.
func RunBatchContext(ctx context.Context, cfgs []Config) ([]*Result, error) {
	engines := make([]*Engine, len(cfgs))
	for i, cfg := range cfgs {
		if ctx != nil {
			cfg.ctx = ctx
		}
		e, err := newEngine(cfg)
		if err != nil {
			return nil, err
		}
		engines[i] = e
	}
	return runEngineBatch(engines)
}

// runEngineBatch drives built engines to completion through one
// lockstep driver, longest run first (a stable sort, so equal runs
// keep their order).
func runEngineBatch(engines []*Engine) ([]*Result, error) {
	if len(engines) == 0 {
		return nil, nil
	}
	order := slices.Clone(engines)
	slices.SortStableFunc(order, func(a, b *Engine) int { return cmp.Compare(b.nTicks, a.nTicks) })
	d, err := newBatchDriver(order)
	if err != nil {
		return nil, err
	}
	k := len(order)
	for tick := 0; tick < order[0].nTicks; tick++ {
		for order[k-1].nTicks <= tick {
			k--
		}
		if err := d.tick(tick, k); err != nil {
			return nil, err
		}
	}
	results := make([]*Result, len(engines))
	for i, e := range engines {
		results[i] = e.finish()
	}
	return results, nil
}
