package sim

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/thermal"
)

// batchDriver advances K engines in lockstep: per tick it runs every
// engine's pre-thermal phase, fuses the K implicit-Euler solves into
// one thermal.TransientBatch panel solve, then runs every post-thermal
// phase. Engines that cannot share a panel solve (a single engine, or
// a non-sparse solver path) step their integrators one after another
// instead, which is always equivalent. All per-tick state (the
// destination and power slice headers included) is wired at
// construction, so the lockstep tick performs no heap allocations —
// the same contract the sequential engine tick keeps.
type batchDriver struct {
	engines []*Engine
	batch   *thermal.TransientBatch // nil: each engine steps alone
	dsts    [][]float64
	powers  [][]float64
	nTicks  int
}

// newBatchDriver wraps already-constructed engines into a lockstep
// driver. It returns thermal.ErrNotBatchable when the engines' tick
// counts differ; the caller then runs each engine to completion alone.
func newBatchDriver(engines []*Engine) (*batchDriver, error) {
	nTicks := engines[0].nTicks
	trs := make([]*thermal.Transient, len(engines))
	for i, e := range engines {
		if e.nTicks != nTicks {
			return nil, fmt.Errorf("%w: run %d has %d ticks, run 0 has %d", thermal.ErrNotBatchable, i, e.nTicks, nTicks)
		}
		trs[i] = e.tr
	}
	d := &batchDriver{engines: engines, nTicks: nTicks}
	if len(engines) == 1 {
		return d, nil
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

// tick advances every engine by one sampling interval.
func (d *batchDriver) tick(tick int) error {
	for _, e := range d.engines {
		if err := e.tickPre(tick); err != nil {
			return err
		}
	}
	if err := d.step(); err != nil {
		return err
	}
	for _, e := range d.engines {
		if err := e.tickPost(tick); err != nil {
			return err
		}
	}
	return nil
}

// step advances every engine's thermal network by one interval under
// the power its pre-thermal phase left in blockPower.
func (d *batchDriver) step() error {
	if d.batch != nil {
		return d.batch.StepInto(d.dsts, d.powers)
	}
	for _, e := range d.engines {
		if err := e.tr.StepInto(e.nodeTemps, e.blockPower); err != nil {
			return err
		}
	}
	return nil
}

// RunBatch executes K co-scheduled simulations in lockstep, fusing
// their per-tick thermal solves into one blocked panel solve over the
// shared factorization (SolverCached runs over the same stack geometry,
// parameters, and tick length share one automatically). Each run keeps
// its own engine — policy, scheduler, power model, metrics,
// reliability tracking, and every TickDecision stay fully independent —
// so the results are bitwise identical to calling Run on each config
// individually; only the number of triangular-solve traversals per tick
// changes. Configs whose runs cannot share a factorization (mixed
// stacks, dense or private-sparse solvers, differing durations) fall
// back to sequential execution transparently.
//
// The configs' contexts are polled per tick as in Run; the first
// error or cancellation aborts the whole batch, consistent with a
// sweep treating its group as one unit of work.
func RunBatch(cfgs []Config) ([]*Result, error) {
	engines := make([]*Engine, len(cfgs))
	for i := range cfgs {
		e, err := newEngine(cfgs[i])
		if err != nil {
			return nil, err
		}
		engines[i] = e
	}
	return runEngineBatch(engines)
}

// RunBatchContext is RunBatch with one context governing every run in
// the batch, polled per tick like RunContext.
func RunBatchContext(ctx context.Context, cfgs []Config) ([]*Result, error) {
	if ctx != nil {
		// Copy before rewriting the context: the caller's configs stay
		// untouched.
		cp := make([]Config, len(cfgs))
		copy(cp, cfgs)
		for i := range cp {
			cp[i].ctx = ctx
		}
		cfgs = cp
	}
	return RunBatch(cfgs)
}

// runEngineBatch drives built engines to completion, batched when
// possible and sequentially otherwise.
func runEngineBatch(engines []*Engine) ([]*Result, error) {
	results := make([]*Result, len(engines))
	if len(engines) == 0 {
		return results, nil
	}
	d, err := newBatchDriver(engines)
	if errors.Is(err, thermal.ErrNotBatchable) {
		for i, e := range engines {
			res, err := e.run()
			if err != nil {
				return nil, err
			}
			results[i] = res
		}
		return results, nil
	}
	if err != nil {
		return nil, err
	}
	for tick := 0; tick < d.nTicks; tick++ {
		if err := d.tick(tick); err != nil {
			return nil, err
		}
	}
	for i, e := range engines {
		if e.trace != nil {
			if err := e.trace.flush(); err != nil {
				return nil, err
			}
		}
		results[i] = e.finish()
	}
	return results, nil
}
