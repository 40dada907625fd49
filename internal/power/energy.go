package power

import (
	"fmt"

	"repro/internal/floorplan"
)

// EnergyMeter accumulates chip energy over a simulation, used for the
// energy-reduction claims of the DPM/DVFS comparisons.
type EnergyMeter struct {
	totalJ  float64
	elapsed float64
}

// NewEnergyMeter returns an empty meter.
func NewEnergyMeter() *EnergyMeter {
	return &EnergyMeter{}
}

// Accumulate adds one interval of length dt seconds with the given
// per-block power vector.
func (e *EnergyMeter) Accumulate(stack *floorplan.Stack, blockPower []float64, dt float64) error {
	if len(blockPower) != stack.NumBlocks() {
		return fmt.Errorf("power: energy meter got %d powers for %d blocks", len(blockPower), stack.NumBlocks())
	}
	if dt <= 0 {
		return fmt.Errorf("power: energy interval must be positive, got %g", dt)
	}
	for _, p := range blockPower {
		e.totalJ += p * dt
	}
	e.elapsed += dt
	return nil
}

// TotalJ returns the accumulated energy in joules.
func (e *EnergyMeter) TotalJ() float64 { return e.totalJ }

// AveragePowerW returns total energy divided by elapsed time.
func (e *EnergyMeter) AveragePowerW() float64 {
	if e.elapsed == 0 {
		return 0
	}
	return e.totalJ / e.elapsed
}
