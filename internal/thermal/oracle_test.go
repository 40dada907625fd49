package thermal

import (
	"fmt"
	"math"

	"repro/internal/linalg"
)

// This file holds the integrator oracles and accessors that only tests
// call: the explicit RK4 cross-check of the implicit-Euler step, and
// reading or setting an integrator's state in °C.

// Dt returns the integrator step in seconds.
func (t *Transient) Dt() float64 { return t.dt }

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

// rowAbsSum returns Σⱼ |S[i][j]|, row i's Gershgorin disc extent.
func rowAbsSum(s *linalg.Sparse, i int) float64 {
	r := 0.0
	for k := s.RowPtr[i]; k < s.RowPtr[i+1]; k++ {
		r += math.Abs(s.Val[k])
	}
	return r
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
	for i := 0; i < n; i++ {
		if l := rowAbsSum(m.G, i) / m.C[i]; l > lmax {
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
