package thermal

import (
	"fmt"
	"math"

	"repro/internal/linalg"
)

// Transient integrates the network ODE  C dT/dt = P - G·T  with the
// unconditionally stable implicit (backward) Euler method:
//
//	(C/dt + G) T_{k+1} = (C/dt) T_k + P_{k+1}
//
// The left-hand matrix is factored once — by default with the sparse
// Cholesky path memoized on the Model, so concurrent sweep runs sharing
// a model (see SharedModel) reuse one factorization — and each Step
// costs one pair of sparse triangular solves. This matches
// how the paper's framework advances HotSpot once per 100 ms sampling
// interval.
type Transient struct {
	m  *Model
	dt float64
	// chol may be shared across goroutines; Step solves with
	// SolveBuffered and the integrator-owned scratch, so the per-tick
	// solve stays allocation-free.
	chol    *linalg.Cholesky
	scratch []float64
	cdt     []float64 // C/dt per node

	// state: temperature rise above ambient per node
	rise []float64
	rhs  []float64
	// pn is the expanded per-node power scratch reused by every Step, so
	// the steady-state tick path performs no allocations.
	pn []float64
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
	cdt := make([]float64, n)
	for i := 0; i < n; i++ {
		cdt[i] = m.C[i] / dt
	}
	chol, err := m.transientFactor(dt, kind)
	if err != nil {
		return nil, fmt.Errorf("thermal: transient factorization failed: %w", err)
	}
	tr := &Transient{
		m:       m,
		dt:      dt,
		chol:    chol,
		scratch: make([]float64, n),
		cdt:     cdt,
		rise:    make([]float64, n),
		rhs:     make([]float64, n),
		pn:      make([]float64, n),
	}
	if init != nil {
		for i := range tr.rise {
			tr.rise[i] = init[i] - m.Params.AmbientC
		}
	}
	return tr, nil
}

// Dt returns the integrator step in seconds.
func (t *Transient) Dt() float64 { return t.dt }

// Step advances the network by one dt under the given per-block power (W)
// and returns the new node temperatures (°C). The returned slice is
// freshly allocated; the hot path uses StepInto instead.
func (t *Transient) Step(blockPower []float64) ([]float64, error) {
	out := make([]float64, len(t.rise))
	if err := t.StepInto(out, blockPower); err != nil {
		return nil, err
	}
	return out, nil
}

// StepInto advances the network by one dt under the given per-block power
// (W) and writes the new node temperatures (°C) into the caller-owned dst
// of length NumNodes. It performs no allocations: the power expansion and
// triangular-solve scratch are integrator-owned buffers.
func (t *Transient) StepInto(dst, blockPower []float64) error {
	if len(dst) != len(t.rise) {
		return fmt.Errorf("thermal: StepInto destination has %d entries, want %d", len(dst), len(t.rise))
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

// substepCount returns how many equal substeps cover dt when each
// substep may be at most sub seconds: the epsilon-tolerant ceiling of
// dt/sub (the same treatment sim's tickCount gives durations). Plain
// int(dt/sub)+1 always ran one extra substep — 2 where 1 suffices when
// stability does not bind (sub == dt) — and was float-truncation
// fragile: a ratio landing just below an integer would still pay the
// +1 on top of the ceiling it already implied. Ratios within relative
// epsilon of an integer round to it; genuinely fractional ratios take
// the true ceiling so no substep ever exceeds sub by more than
// rounding noise.
func substepCount(dt, sub float64) int {
	ratio := dt / sub
	rounded := math.Round(ratio)
	if math.Abs(ratio-rounded) <= 1e-9*math.Max(1, math.Abs(ratio)) {
		if rounded < 1 {
			return 1
		}
		return int(rounded)
	}
	steps := int(math.Ceil(ratio))
	if steps < 1 {
		return 1
	}
	return steps
}

// Fork returns a new integrator over the same thermal system and time
// step, sharing the immutable model, factorization, and C/dt diagonal
// with the receiver but owning its own state and solve scratch. The
// fork starts from a copy of the receiver's current state; afterwards
// the two advance independently, and — because the shared sparse
// factorization is read-only under SolveBuffered — concurrently. This
// is the thermal half of the simulator's engine-fork primitive: K
// rollout lanes cost K state vectors, not K factorizations.
func (t *Transient) Fork() *Transient {
	n := len(t.rise)
	return &Transient{
		m:       t.m,
		dt:      t.dt,
		chol:    t.chol,
		scratch: make([]float64, n),
		cdt:     t.cdt,
		rise:    append([]float64(nil), t.rise...),
		rhs:     make([]float64, n),
		pn:      make([]float64, n),
	}
}

// StateInto copies the integrator's raw state — the temperature rise
// above ambient per node — into the caller-owned dst of length
// NumNodes. Unlike Temps it does not add the ambient back, so a
// StateInto/SetState round trip restores the state bitwise (adding and
// re-subtracting the ambient can perturb the last ulp), which the
// engine snapshot machinery relies on.
func (t *Transient) StateInto(dst []float64) error {
	if len(dst) != len(t.rise) {
		return fmt.Errorf("thermal: StateInto got %d entries, want %d", len(dst), len(t.rise))
	}
	copy(dst, t.rise)
	return nil
}

// SetState overwrites the integrator's raw state with a rise vector
// previously captured by StateInto. See StateInto for why this exists
// alongside SetTemps.
func (t *Transient) SetState(rise []float64) error {
	if len(rise) != len(t.rise) {
		return fmt.Errorf("thermal: SetState got %d entries, want %d", len(rise), len(t.rise))
	}
	copy(t.rise, rise)
	return nil
}

// Temps returns the current node temperatures in °C.
func (t *Transient) Temps() []float64 {
	out := make([]float64, len(t.rise))
	for i, r := range t.rise {
		out[i] = r + t.m.Params.AmbientC
	}
	return out
}

// SetTemps overwrites the integrator state with the given node
// temperatures (°C).
func (t *Transient) SetTemps(tempsC []float64) error {
	if len(tempsC) != len(t.rise) {
		return fmt.Errorf("thermal: SetTemps got %d entries, want %d", len(tempsC), len(t.rise))
	}
	for i := range t.rise {
		t.rise[i] = tempsC[i] - t.m.Params.AmbientC
	}
	return nil
}

// StepRK4 advances node temperatures (°C) by dt using classical
// Runge-Kutta with automatic substepping chosen from the Gershgorin bound
// on the system's eigenvalues. It is an independent explicit integrator
// used to cross-validate the implicit Euler path in tests; it allocates
// per call and is not meant for long production runs.
func (m *Model) StepRK4(tempsC []float64, blockPower []float64, dt float64) ([]float64, error) {
	if len(tempsC) != m.NumNodes {
		return nil, fmt.Errorf("thermal: StepRK4 got %d temps, want %d", len(tempsC), m.NumNodes)
	}
	pn, err := m.ExpandPower(blockPower)
	if err != nil {
		return nil, err
	}
	n := m.NumNodes
	rise := make([]float64, n)
	for i := range rise {
		rise[i] = tempsC[i] - m.Params.AmbientC
	}
	// deriv computes dT/dt = C^{-1} (P - G·T).
	gt := make([]float64, n)
	deriv := func(dst, t []float64) {
		m.G.MulVec(gt, t)
		for i := 0; i < n; i++ {
			dst[i] = (pn[i] - gt[i]) / m.C[i]
		}
	}
	// Stability: |lambda|_max <= max_i (sum_j |G_ij|) / C_i. RK4's real
	// stability interval is ~2.78/|lambda|; use half for safety.
	lmax := 0.0
	for i, s := range m.G.RowAbsSums() {
		if l := s / m.C[i]; l > lmax {
			lmax = l
		}
	}
	sub := dt
	if lmax > 0 {
		maxStep := 1.39 / lmax
		if sub > maxStep {
			sub = maxStep
		}
	}
	steps := substepCount(dt, sub)
	h := dt / float64(steps)

	k1 := make([]float64, n)
	k2 := make([]float64, n)
	k3 := make([]float64, n)
	k4 := make([]float64, n)
	tmp := make([]float64, n)
	for s := 0; s < steps; s++ {
		deriv(k1, rise)
		for i := range tmp {
			tmp[i] = rise[i] + h/2*k1[i]
		}
		deriv(k2, tmp)
		for i := range tmp {
			tmp[i] = rise[i] + h/2*k2[i]
		}
		deriv(k3, tmp)
		for i := range tmp {
			tmp[i] = rise[i] + h*k3[i]
		}
		deriv(k4, tmp)
		for i := range rise {
			rise[i] += h / 6 * (k1[i] + 2*k2[i] + 2*k3[i] + k4[i])
		}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = rise[i] + m.Params.AmbientC
	}
	return out, nil
}
