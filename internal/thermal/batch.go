package thermal

import (
	"errors"
	"fmt"

	"repro/internal/linalg"
)

// ErrNotBatchable reports that a set of transient integrators cannot
// advance in lockstep through one panel solve: they do not share a
// sparse factorization (different systems, different time steps, or a
// non-sparse solver path). Callers fall back to per-integrator
// stepping, which is always valid.
var ErrNotBatchable = errors.New("thermal: transients do not share a factorization")

// TransientBatch advances K transient integrators that share one sparse
// factorization — co-scheduled sweep jobs over the same (G, C, dt)
// system — in lockstep: each StepInto gathers every lane's implicit-
// Euler right-hand side into one column-major panel and performs a
// single blocked triangular solve (linalg.Cholesky.SolvePanel) instead
// of K independent sparse sweeps. Per lane, the arithmetic is the exact
// operation sequence of Transient.StepInto, so every lane's
// temperature trajectory is bitwise identical to stepping that
// integrator alone; the batch only changes how many times L is
// traversed per tick.
//
// The batch owns the panel and solve scratch (allocated once at
// construction) and the lanes keep owning their integrator state, so
// the lockstep tick loop performs no allocations. A batch belongs to
// one goroutine, like the Transients it drives.
type TransientBatch struct {
	lanes []*Transient
	chol  *linalg.Cholesky
	n, k  int
	// panel is the column-major n×k RHS/solution panel (lane l at
	// [l*n:(l+1)*n]); scratch is SolvePanel's lane-interleaved buffer.
	panel   []float64
	scratch []float64
}

// NewTransientBatch wraps the given integrators into a lockstep batch.
// All lanes must share one sparse factorization — the same *Cholesky,
// which SolverCached guarantees for integrators built from one Model
// with one time step — and therefore the same node
// count and dt; otherwise ErrNotBatchable is returned and the caller
// should step the integrators individually. The integrators remain
// usable on their own (StepInto outside the batch stays valid and
// produces the same trajectory).
func NewTransientBatch(lanes []*Transient) (*TransientBatch, error) {
	if len(lanes) == 0 {
		return nil, fmt.Errorf("thermal: transient batch needs at least one lane")
	}
	base := lanes[0]
	if base.chol == nil {
		return nil, fmt.Errorf("%w: lane 0 uses a non-sparse solver", ErrNotBatchable)
	}
	for i, tr := range lanes[1:] {
		if tr.chol == nil || tr.chol != base.chol {
			return nil, fmt.Errorf("%w: lane %d does not share lane 0's factorization", ErrNotBatchable, i+1)
		}
		if tr.dt != base.dt {
			return nil, fmt.Errorf("%w: lane %d steps dt=%g, lane 0 dt=%g", ErrNotBatchable, i+1, tr.dt, base.dt)
		}
	}
	n, k := len(base.rise), len(lanes)
	return &TransientBatch{
		lanes:   lanes,
		chol:    base.chol,
		n:       n,
		k:       k,
		panel:   make([]float64, n*k),
		scratch: make([]float64, n*k),
	}, nil
}

// StepInto advances the batch's first k lanes by one dt, where k =
// len(dsts) and 1 ≤ k ≤ K; lanes k…K−1 are left untouched, so a
// driver whose runs retire longest-first keeps stepping the runs still
// going as a prefix. blockPowers[l] is lane l's per-block power input
// and dsts[l] the caller-owned destination for its new node
// temperatures (°C), both with the lane integrator's usual StepInto
// contracts. One SolvePanel call over the first n·k entries of the
// panel advances the k lanes, each bit for bit as Transient.StepInto
// would; no allocations are performed.
func (b *TransientBatch) StepInto(dsts, blockPowers [][]float64) error {
	k := len(dsts)
	if k == 0 || k > b.k || len(blockPowers) != k {
		return fmt.Errorf("thermal: batch StepInto got %d dsts and %d power vectors for a batch of %d lanes",
			len(dsts), len(blockPowers), b.k)
	}
	n := b.n
	for l, tr := range b.lanes[:k] {
		if len(dsts[l]) != n {
			return fmt.Errorf("thermal: batch StepInto lane %d destination has %d entries, want %d", l, len(dsts[l]), n)
		}
		if err := tr.m.ExpandPowerInto(tr.pn, blockPowers[l]); err != nil {
			return fmt.Errorf("thermal: batch lane %d: %w", l, err)
		}
		col := b.panel[l*n : (l+1)*n]
		for i := 0; i < n; i++ {
			col[i] = tr.cdt[i]*tr.rise[i] + tr.pn[i]
		}
	}
	panel := b.panel[:n*k]
	if err := b.chol.SolvePanel(panel, panel, k, b.scratch[:n*k]); err != nil {
		return fmt.Errorf("thermal: batched transient step failed: %w", err)
	}
	for l, tr := range b.lanes[:k] {
		col := panel[l*n : (l+1)*n]
		copy(tr.rise, col)
		ambient := tr.m.Params.AmbientC
		dst := dsts[l]
		for i, r := range tr.rise {
			dst[i] = r + ambient
		}
	}
	return nil
}
