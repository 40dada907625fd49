package power

// EnergyState is a value snapshot of an EnergyMeter's accumulators,
// used by the simulation engine's checkpoint machinery. The zero value
// is a ready Save destination.
type EnergyState struct {
	totalJ  float64
	elapsed float64
}

// Save captures the meter's accumulated energy into s.
func (e *EnergyMeter) Save(s *EnergyState) {
	s.totalJ = e.totalJ
	s.elapsed = e.elapsed
}

// Load restores the meter's accumulators from s.
func (e *EnergyMeter) Load(s *EnergyState) {
	e.totalJ = s.totalJ
	e.elapsed = s.elapsed
}
