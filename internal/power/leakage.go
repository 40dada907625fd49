package power

import (
	"fmt"
	"math"
)

// LeakageModel is the temperature/voltage-dependent leakage model of
// Section IV-B: a base leakage power density of 0.5 W/mm² at 383 K
// (from Bose [5]) scaled by a second-order polynomial in temperature
// (the full-chip leakage model of Su et al. [25]) and quadratically in
// supply voltage.
//
// The normalized temperature factor is
//
//	g(T) = 1 + C1·(T - TRef) + C2·(T - TRef)²
//
// with coefficients fitted empirically so that g matches the normalized
// leakage curve of [25]: the exponential subthreshold dependence makes
// leakage fall to ~25% of the 383 K value at 85 °C and ~10% at 70 °C.
type LeakageModel struct {
	BaseDensityWPerMM2 float64 // 0.5 at TRefK
	TRefK              float64 // 383 K
	C1                 float64 // 1/K
	C2                 float64 // 1/K²
	// GCap saturates the temperature factor. The quadratic is a local
	// fit; well above the paper's 85 °C emergency threshold its slope
	// makes the chip-level leakage feedback loop gain exceed unity on
	// 4-layer stacks, which is outside the regime the fit (and the
	// paper's experiments) cover. The default caps g at its 85 °C value
	// — the emergency threshold itself, the hottest point the managed
	// system is meant to reach (TestDefaultGCapCalibration pins the
	// constant to the polynomial).
	GCap float64
}

// DefaultLeakage returns the calibrated model.
func DefaultLeakage() LeakageModel {
	return LeakageModel{
		BaseDensityWPerMM2: 0.5,
		TRefK:              383,
		C1:                 0.0425,
		C2:                 5.0e-4,
		GCap:               0.25, // g(85 °C): the paper's emergency threshold
	}
}

// Validate reports nonsensical parameters.
func (m LeakageModel) Validate() error {
	if m.BaseDensityWPerMM2 < 0 {
		return fmt.Errorf("power: leakage base density must be >= 0, got %g", m.BaseDensityWPerMM2)
	}
	if m.TRefK <= 0 {
		return fmt.Errorf("power: leakage reference temperature must be positive, got %g", m.TRefK)
	}
	return nil
}

// TempFactor returns g(T) for a temperature in °C, floored at a small
// positive value and capped at the top of the polynomial fit's validity
// range (the fit of [25] covers up to ~400 K; beyond it the quadratic
// would overestimate leakage and destabilize the feedback loop).
func (m LeakageModel) TempFactor(tempC float64) float64 { return m.curve().at(tempC) }

// leakCurve is g(T) with the model's per-call constants resolved once,
// so the per-block power loop pays no division for the vertex.
type leakCurve struct {
	tRefK, c1, c2 float64
	// vertex is the parabola's vertex as an offset from TRefK, below
	// which g is held; -Inf unless C2 > 0, so no floor applies.
	vertex float64
	cap    float64
}

func (m LeakageModel) curve() leakCurve {
	c := leakCurve{tRefK: m.TRefK, c1: m.C1, c2: m.C2, vertex: math.Inf(-1), cap: m.GCap}
	if m.C2 > 0 {
		c.vertex = -m.C1 / (2 * m.C2)
	}
	if c.cap <= 0 {
		c.cap = 1.0
	}
	return c
}

// at is the one definition of g(T).
func (c leakCurve) at(tempC float64) float64 {
	dt := (tempC + 273.15) - c.tRefK
	// Evaluate at the parabola's vertex for temperatures below it: the
	// quadratic is a local fit around the reference and turns back up
	// outside its validity range.
	if dt < c.vertex {
		dt = c.vertex
	}
	g := 1 + c.c1*dt + c.c2*dt*dt
	if g < 0.02 {
		return 0.02
	}
	if g > c.cap {
		return c.cap
	}
	return g
}
