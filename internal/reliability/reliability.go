package reliability

import (
	"fmt"
	"math"
)

// Boltzmann constant in eV/K.
const boltzmannEV = 8.617333262e-5

// CyclingModel is the Coffin-Manson thermal fatigue model: the number of
// cycles to failure scales as (ΔT_ref/ΔT)^Exponent. The paper cites
// JEDEC data showing failures become 16x more frequent when ΔT grows
// from 10 to 20 °C — an exponent of 4, the default here.
type CyclingModel struct {
	Exponent  float64
	RefDeltaC float64 // amplitude at which damage is defined as 1 per cycle
}

// DefaultCycling returns the JEDEC-calibrated model.
func DefaultCycling() CyclingModel { return CyclingModel{Exponent: 4, RefDeltaC: 20} }

// Validate reports nonsensical parameters.
func (m CyclingModel) Validate() error {
	if m.Exponent <= 0 || m.RefDeltaC <= 0 {
		return fmt.Errorf("reliability: cycling model needs positive exponent and reference, got %+v", m)
	}
	return nil
}

// CycleDamage returns the fatigue damage of one full cycle of the given
// amplitude, normalized so a RefDeltaC cycle contributes 1.0.
func (m CyclingModel) CycleDamage(deltaC float64) float64 {
	if deltaC <= 0 {
		return 0
	}
	return math.Pow(deltaC/m.RefDeltaC, m.Exponent)
}

// Damage accumulates the census of full cycles (rainflow output) plus
// half cycles at half weight, per the usual Miner's-rule accounting.
func (m CyclingModel) Damage(fullCycles, halfCycles []float64) float64 {
	d := 0.0
	for _, a := range fullCycles {
		d += m.CycleDamage(a)
	}
	for _, a := range halfCycles {
		d += m.CycleDamage(a) / 2
	}
	return d
}

// EMModel is Black's-equation electromigration acceleration: the failure
// rate scales as exp(-Ea/kT) relative to a reference temperature.
type EMModel struct {
	ActivationEV float64 // JEDEC: ~0.7 eV for Al/Cu interconnect EM
	RefC         float64 // temperature at which the rate factor is 1
}

// DefaultEM returns the JEDEC-typical electromigration model referenced
// to the paper's 85 °C threshold.
func DefaultEM() EMModel { return EMModel{ActivationEV: 0.7, RefC: 85} }

// Validate reports nonsensical parameters.
func (m EMModel) Validate() error {
	if m.ActivationEV <= 0 {
		return fmt.Errorf("reliability: EM activation energy must be positive, got %g", m.ActivationEV)
	}
	if m.RefC <= -273.15 {
		return fmt.Errorf("reliability: EM reference temperature %g below absolute zero", m.RefC)
	}
	return nil
}

// RateFactor returns the instantaneous wear rate at tempC relative to
// the reference temperature (1.0 at RefC, >1 hotter, <1 cooler).
func (m EMModel) RateFactor(tempC float64) float64 {
	t := tempC + 273.15
	ref := m.RefC + 273.15
	return math.Exp(m.ActivationEV / boltzmannEV * (1/ref - 1/t))
}
