package thermal

import (
	"fmt"

	"repro/internal/linalg"
)

// Transient integrates the network ODE  C dT/dt = P - G·T  with the
// unconditionally stable implicit (backward) Euler method:
//
//	(C/dt + G) T_{k+1} = (C/dt) T_k + P_{k+1}
//
// The left-hand matrix is factored once — by default with the sparse
// Cholesky path memoized on the Model, so concurrent sweep runs sharing
// a model (see SharedModel) reuse one factorization — and each StepInto
// costs one pair of sparse triangular solves. This matches
// how the paper's framework advances HotSpot once per 100 ms sampling
// interval.
type Transient struct {
	m  *Model
	dt float64
	// chol and cdt (C/dt per node) come with the factorization and may
	// be shared across goroutines; both are only read.
	chol *linalg.Cholesky
	cdt  []float64

	// state: temperature rise above ambient per node
	rise []float64
	// rhs, pn (the expanded per-node power) and scratch are StepInto's
	// buffers, allocated on its first call and reused after, so the
	// per-tick solve stays allocation-free and an integrator that
	// never steps alone (a checkpoint, a batch lane) holds only rise.
	rhs, pn, scratch []float64
}

// NewTransient prepares an integrator with time step dt seconds, starting
// from the node temperatures init (°C); pass nil to start at ambient.
// The left-hand factorization is the model's memoized one for dt.
func (m *Model) NewTransient(dt float64, init []float64) (*Transient, error) {
	return m.NewTransientWith(dt, init, SolverCached)
}

// NewTransientWith is NewTransient on kind's factorization of C/dt + G:
// a private one under SolverSparse, the memoized one under every other
// kind.
func (m *Model) NewTransientWith(dt float64, init []float64, kind SolverKind) (*Transient, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("thermal: transient step must be positive, got %g", dt)
	}
	n := m.NumNodes
	if init != nil && len(init) != n {
		return nil, fmt.Errorf("thermal: init vector has %d entries, want %d", len(init), n)
	}
	chol, cdt, err := m.transientFactor(dt, kind)
	if err != nil {
		return nil, fmt.Errorf("thermal: transient factorization failed: %w", err)
	}
	tr := &Transient{
		m:    m,
		dt:   dt,
		chol: chol,
		cdt:  cdt,
		rise: make([]float64, n),
	}
	if init != nil {
		for i := range tr.rise {
			tr.rise[i] = init[i] - m.Params.AmbientC
		}
	}
	return tr, nil
}

// StepInto advances the network by one dt under the given per-block power
// (W) and writes the new node temperatures (°C) into the caller-owned dst
// of length NumNodes. Only its first call allocates: the power expansion
// and triangular-solve scratch are integrator-owned buffers.
func (t *Transient) StepInto(dst, blockPower []float64) error {
	if len(dst) != len(t.rise) {
		return fmt.Errorf("thermal: StepInto destination has %d entries, want %d", len(dst), len(t.rise))
	}
	if t.rhs == nil {
		n := len(t.rise)
		t.rhs, t.pn, t.scratch = make([]float64, n), make([]float64, n), make([]float64, n)
	}
	if err := t.m.ExpandPowerInto(t.pn, blockPower); err != nil {
		return err
	}
	for i := range t.rhs {
		t.rhs[i] = t.cdt[i]*t.rise[i] + t.pn[i]
	}
	if err := t.chol.SolveBuffered(t.rise, t.rhs, t.scratch); err != nil {
		return fmt.Errorf("thermal: transient step failed: %w", err)
	}
	ambient := t.m.Params.AmbientC
	for i, r := range t.rise {
		dst[i] = r + ambient
	}
	return nil
}

// CopyStateFrom copies src's raw state, the temperature rise above
// ambient per node, into the receiver bit for bit: going through °C
// would add and subtract the ambient and can move the last ulp. src may
// integrate another system of the same size, as when a degraded
// model's integrator takes over its predecessor's state; it is only
// read.
func (t *Transient) CopyStateFrom(src *Transient) error {
	if len(src.rise) != len(t.rise) {
		return fmt.Errorf("thermal: CopyStateFrom got %d nodes, want %d", len(src.rise), len(t.rise))
	}
	copy(t.rise, src.rise)
	return nil
}
