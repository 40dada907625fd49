package thermal

import "fmt"

// Params collects the physical constants of the thermal model. The zero
// value is not useful; start from DefaultParams.
type Params struct {
	// AmbientC is the ambient air temperature in °C (HotSpot default 45).
	AmbientC float64

	// SiliconResistivity is silicon thermal resistivity in m·K/W
	// (1/conductivity; k_si = 100 W/mK -> 0.01).
	SiliconResistivity float64
	// SiliconVolHeat is silicon volumetric heat capacity in J/(m³·K).
	SiliconVolHeat float64

	// InterlayerResistivity is the joint interface-material resistivity
	// between stacked dies in m·K/W (0.23 in the paper's experiments,
	// derived from 0.25 raw plus >=1024 TSVs; see JointResistivity).
	InterlayerResistivity float64
	// InterlayerThicknessM is the interface material thickness in metres
	// (Table II: 0.02 mm).
	InterlayerThicknessM float64
	// InterlayerVolHeat is the interface material volumetric heat
	// capacity in J/(m³·K).
	InterlayerVolHeat float64

	// TIMResistivity and TIMThicknessM describe the thermal interface
	// material between the bottom die and the heat spreader (TIM1).
	TIMResistivity float64
	TIMThicknessM  float64
	// TIM2Resistivity and TIM2ThicknessM describe the interface between
	// the spreader and the heat sink base (TIM2), a series resistance
	// shared by the whole stack.
	TIM2Resistivity float64
	TIM2ThicknessM  float64

	// Copper spreader and sink (HotSpot-default-like package).
	CopperResistivity float64 // m·K/W (k_cu = 400 -> 0.0025)
	CopperVolHeat     float64 // J/(m³·K)
	SpreaderSideM     float64 // square spreader side
	SpreaderThickM    float64
	SinkSideM         float64 // square sink base side
	SinkThickM        float64

	// ConvectionR is the total sink-to-air convection resistance in K/W
	// (Table II: 0.1). ConvectionC is the convection capacitance in J/K
	// (Table II: 140).
	ConvectionR float64
	ConvectionC float64
}

// DefaultParams returns the paper's Table II values combined with
// HotSpot-4.2-like package defaults. The package dimensions are sized for
// the compact 3D prototype package discussed in the paper rather than a
// large server sink. The TIM1 comment below gives the calibration's
// rationale, and TestCalibrationProbe (internal/sim, run with -v) prints
// the operating envelope it yields.
func DefaultParams() Params {
	return Params{
		AmbientC: 45,

		SiliconResistivity: 0.01,   // k = 100 W/mK
		SiliconVolHeat:     1.75e6, // J/(m³·K)

		InterlayerResistivity: 0.23,    // joint value with >=1024 TSVs
		InterlayerThicknessM:  0.02e-3, // Table II
		InterlayerVolHeat:     4.0e6,

		// Die-to-spreader TIM1: grease-class material (k = 1 W/mK) at a
		// 30 µm bond line — 3e-5 m²K/W of area resistance, i.e. ~3 K/W
		// under one 10 mm² core. This local column resistance is what
		// lets an overloaded core spike past the threshold while the
		// chip average stays moderate. Unlike the die-to-die interface,
		// the package TIMs are not specified in Table II, so both are
		// calibration choices.
		TIMResistivity: 1.0,
		TIMThicknessM:  0.03e-3,
		// Spreader-to-sink TIM2: indium solder joint (k = 80 W/mK,
		// 100 µm) — a negligible shared series resistance, as in
		// high-grade server packages.
		TIM2Resistivity: 0.0125,
		TIM2ThicknessM:  0.1e-3,

		CopperResistivity: 0.0025, // k = 400 W/mK
		CopperVolHeat:     3.55e6,
		SpreaderSideM:     20e-3,
		SpreaderThickM:    0.8e-3,
		SinkSideM:         30e-3,
		SinkThickM:        4e-3,

		ConvectionR: 0.1, // Table II
		ConvectionC: 140, // Table II
	}
}

// Validate reports the first out-of-range parameter.
func (p Params) Validate() error {
	checks := []struct {
		name string
		v    float64
	}{
		{"SiliconResistivity", p.SiliconResistivity},
		{"SiliconVolHeat", p.SiliconVolHeat},
		{"InterlayerResistivity", p.InterlayerResistivity},
		{"InterlayerThicknessM", p.InterlayerThicknessM},
		{"InterlayerVolHeat", p.InterlayerVolHeat},
		{"TIMResistivity", p.TIMResistivity},
		{"TIMThicknessM", p.TIMThicknessM},
		{"TIM2Resistivity", p.TIM2Resistivity},
		{"TIM2ThicknessM", p.TIM2ThicknessM},
		{"CopperResistivity", p.CopperResistivity},
		{"CopperVolHeat", p.CopperVolHeat},
		{"SpreaderSideM", p.SpreaderSideM},
		{"SpreaderThickM", p.SpreaderThickM},
		{"SinkSideM", p.SinkSideM},
		{"SinkThickM", p.SinkThickM},
		{"ConvectionR", p.ConvectionR},
		{"ConvectionC", p.ConvectionC},
	}
	for _, c := range checks {
		if c.v <= 0 {
			return fmt.Errorf("thermal: parameter %s must be positive, got %g", c.name, c.v)
		}
	}
	if p.SinkSideM < p.SpreaderSideM {
		return fmt.Errorf("thermal: sink side %g m smaller than spreader side %g m", p.SinkSideM, p.SpreaderSideM)
	}
	return nil
}
