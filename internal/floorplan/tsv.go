package floorplan

import "math"

// TSV geometry assumed throughout the paper (Section IV-C): 10 µm via
// diameter with 10 µm keep-out spacing around each via.
const (
	ViaDiameterM = 10e-6
	ViaSpacingM  = 10e-6
)

// TSVModel computes the joint thermal resistivity of the interface
// material between stacked dies as a function of through-silicon-via
// density, reproducing Figure 2 of the paper. Copper vias conduct heat
// far better than the surrounding epoxy-class interface material, so the
// two paths combine in parallel, weighted by area fraction. It is the
// one TSV formula: StackSpec.Build derives a spec's TSV-based
// resistivity through it too.
type TSVModel struct {
	// BaseResistivity is the raw interface material resistivity in m·K/W
	// (Table II: 0.25).
	BaseResistivity float64
	// ViaResistivity is the via metal (copper) resistivity in m·K/W.
	ViaResistivity float64
	// LayerAreaM2 is the total die layer area in m² over which the vias
	// are spread homogeneously.
	LayerAreaM2 float64
}

// NewTSVModel returns the model with the paper's parameters: 0.25 m·K/W
// base material (InterlayerResistivity), copper vias, 115 mm² layers.
func NewTSVModel() TSVModel {
	return TSVModel{
		BaseResistivity: InterlayerResistivity,
		ViaResistivity:  0.0025,
		LayerAreaM2:     LayerAreaMM2 * 1e-6,
	}
}

// ViaAreaM2 returns the conductive cross-section of a single via. It is
// a constant expression, rounded once: squaring a rounded radius at run
// time lands one ulp away and moves spec-derived resistivities.
func ViaAreaM2() float64 {
	return math.Pi * (ViaDiameterM / 2) * (ViaDiameterM / 2)
}

// ViaFootprintM2 returns the layout area consumed by one via including
// its keep-out spacing (the quantity that counts toward area overhead).
func ViaFootprintM2() float64 {
	pitch := ViaDiameterM + ViaSpacingM
	return pitch * pitch
}

// Density returns d_TSV, the ratio of total via conductive area to layer
// area, for the given number of vias.
func (m TSVModel) Density(viaCount int) float64 {
	if viaCount <= 0 {
		return 0
	}
	return float64(viaCount) * ViaAreaM2() / m.LayerAreaM2
}

// AreaOverhead returns the fraction of the layer consumed by via
// footprints (vias plus keep-out), the quantity the paper keeps below 1%.
func (m TSVModel) AreaOverhead(viaCount int) float64 {
	if viaCount <= 0 {
		return 0
	}
	return float64(viaCount) * ViaFootprintM2() / m.LayerAreaM2
}

// JointResistivity returns the combined resistivity in m·K/W of the
// interface material with viaCount homogeneously distributed TSVs:
//
//	1/rho_joint = (1-d)/rho_base + d/rho_via
//
// With 1024 vias on a 115 mm² layer this evaluates to ~0.23 m·K/W, the
// value used for all the paper's experiments.
func (m TSVModel) JointResistivity(viaCount int) float64 {
	d := m.Density(viaCount)
	if d <= 0 {
		return m.BaseResistivity
	}
	if d >= 1 {
		return m.ViaResistivity
	}
	return 1 / ((1-d)/m.BaseResistivity + d/m.ViaResistivity)
}

// Fig2Point is one sample of the Figure 2 curve.
type Fig2Point struct {
	ViaCount         int
	DensityPct       float64 // conductive-area density, %
	AreaOverheadPct  float64 // footprint overhead, %
	JointResistivity float64 // m·K/W
}

// Fig2Curve samples the joint resistivity for the given via counts,
// regenerating the data behind Figure 2 of the paper.
func (m TSVModel) Fig2Curve(viaCounts []int) []Fig2Point {
	out := make([]Fig2Point, 0, len(viaCounts))
	for _, n := range viaCounts {
		out = append(out, Fig2Point{
			ViaCount:         n,
			DensityPct:       100 * m.Density(n),
			AreaOverheadPct:  100 * m.AreaOverhead(n),
			JointResistivity: m.JointResistivity(n),
		})
	}
	return out
}

// DefaultFig2ViaCounts are the sweep points used by cmd/tsvmodel and the
// Figure 2 bench: powers of two from 0 to 4096 vias.
func DefaultFig2ViaCounts() []int {
	return []int{0, 64, 128, 256, 512, 768, 1024, 1536, 2048, 3072, 4096}
}
