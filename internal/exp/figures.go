package exp

import (
	"fmt"
	"io"

	"repro/internal/floorplan"
	"repro/internal/report"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// FigureConfig controls the figure-regeneration sweeps.
type FigureConfig struct {
	// DurationS per run; 0 selects 300 s (the paper uses half-hour
	// traces; the policy ordering stabilizes well before that).
	DurationS float64
	Seed      int64
	// Benchmarks overrides the default mix.
	Benchmarks []string
	// Exps overrides the default (all four for Figs 3-5; EXP-1/EXP-3 for
	// Fig 6, as in the paper).
	Exps []floorplan.Experiment
	// Replicates averages every cell over that many independent seeds
	// and renders mean±stddev entries (0 or 1: single-seed, as in the
	// paper figures).
	Replicates int
}

// TableIReport renders Table I (workload characteristics) together with
// the measured offered load of the synthetic generator, regenerating the
// published statistics.
func TableIReport(seed int64) (*report.Table, error) {
	t := report.NewTable("TABLE I. WORKLOAD CHARACTERISTICS (paper values + generator check)",
		"#", "Benchmark", "AvgUtil%", "L2 I-Miss", "L2 D-Miss", "FP instr", "Class", "GenUtil%")
	for _, b := range workload.TableI() {
		jobs, err := workload.Generate(workload.GenConfig{Bench: b, NumCores: 8, DurationS: 1800, Seed: seed})
		if err != nil {
			return nil, err
		}
		gen := 100 * workload.OfferedLoad(jobs, 8, 1800)
		t.AddRow(b.ID, b.Name, b.AvgUtilPct, b.L2IMissPer100K, b.L2DMissPer100K, b.FPPer100K, b.Class.String(), gen)
	}
	return t, nil
}

// TableIIReport renders the thermal model and floorplan parameters in use
// (Table II).
func TableIIReport() *report.Table {
	p := thermal.DefaultParams()
	t := report.NewTable("TABLE II. THERMAL MODEL AND FLOORPLAN PARAMETERS", "Parameter", "Value")
	t.AddRow("Die Thickness (one stack)", fmt.Sprintf("%.2f mm", floorplan.DieThicknessMM))
	t.AddRow("Area per Core", fmt.Sprintf("%.0f mm²", floorplan.CoreAreaMM2))
	t.AddRow("Area per L2 Cache", fmt.Sprintf("%.0f mm²", floorplan.L2AreaMM2))
	t.AddRow("Total Area of Each Layer", fmt.Sprintf("%.0f mm²", floorplan.LayerAreaMM2))
	t.AddRow("Convection Capacitance", fmt.Sprintf("%.0f J/K", p.ConvectionC))
	t.AddRow("Convection Resistance", fmt.Sprintf("%.1f K/W", p.ConvectionR))
	t.AddRow("Interlayer Material Thickness (3D)", fmt.Sprintf("%.2f mm", floorplan.InterlayerThicknessMM))
	t.AddRow("Interlayer Material Resistivity", fmt.Sprintf("%.2f mK/W", floorplan.InterlayerResistivity))
	t.AddRow("Joint Interlayer Resistivity (1024 TSVs)", fmt.Sprintf("%.3g mK/W", floorplan.NewTSVModel().JointResistivity(1024)))
	t.AddRow("Ambient", fmt.Sprintf("%.0f °C", p.AmbientC))
	return t
}

// Fig2Report regenerates Figure 2: the joint interface-material
// resistivity as a function of TSV count/density.
func Fig2Report() *report.Table {
	m := floorplan.NewTSVModel()
	t := report.NewTable("Fig. 2: Effect of Vias on the Resistivity of the Interface Material",
		"TSVs", "Density %", "Area Overhead %", "Joint Resistivity mK/W")
	for _, p := range m.Fig2Curve(floorplan.DefaultFig2ViaCounts()) {
		t.AddRow(p.ViaCount, fmt.Sprintf("%.4f", p.DensityPct), fmt.Sprintf("%.3f", p.AreaOverheadPct),
			fmt.Sprintf("%.4f", p.JointResistivity))
	}
	return t
}

func (f FigureConfig) matrix(useDPM bool) (*Matrix, error) {
	return Run(MatrixConfig{
		Exps:       f.Exps,
		Benchmarks: f.Benchmarks,
		UseDPM:     useDPM,
		DurationS:  f.DurationS,
		Seed:       f.Seed,
		Replicates: f.Replicates,
	})
}

// metricTableSpread renders one metric for every (policy, experiment)
// cell. Cells carrying a replicate spread render as "mean±stddev"; the
// single-seed sweeps keep the original plain float cells.
func metricTableSpread(m *Matrix, title string, get func(Cell) float64, getStd func(CellSpread) float64) *report.Table {
	header := []string{"Policy"}
	for _, e := range m.Config.Exps {
		header = append(header, e.String())
	}
	t := report.NewTable(title, header...)
	for pi, p := range m.Config.Policies {
		row := []interface{}{p}
		for ei := range m.Config.Exps {
			c := m.Cells[pi][ei]
			if c.Spread != nil && getStd != nil {
				row = append(row, fmt.Sprintf("%.2f±%.2f", get(c), getStd(*c.Spread)))
			} else {
				row = append(row, get(c))
			}
		}
		t.AddRow(row...)
	}
	return t
}

// Fig3Report regenerates Figure 3: thermal hot spots (% of time above
// 85 °C) without DPM, plus normalized performance (the figure's line
// series) as a second table.
func Fig3Report(f FigureConfig) (hotspots, perf *report.Table, m *Matrix, err error) {
	m, err = f.matrix(false)
	if err != nil {
		return nil, nil, nil, err
	}
	hotspots = metricTableSpread(m, "Fig. 3: Thermal Hot Spots (Without DPM) — % time > 85 °C", func(c Cell) float64 { return c.HotSpotPct }, func(s CellSpread) float64 { return s.HotSpotPct })
	perf = metricTableSpread(m, "Fig. 3 (line series): Performance normalized to Default", func(c Cell) float64 { return c.NormPerf }, func(s CellSpread) float64 { return s.NormPerf })
	return hotspots, perf, m, nil
}

// Fig4Report regenerates Figure 4: thermal hot spots with DPM.
func Fig4Report(f FigureConfig) (*report.Table, *Matrix, error) {
	m, err := f.matrix(true)
	if err != nil {
		return nil, nil, err
	}
	return metricTableSpread(m, "Fig. 4: Thermal Hot Spots (With DPM) — % time > 85 °C", func(c Cell) float64 { return c.HotSpotPct }, func(s CellSpread) float64 { return s.HotSpotPct }), m, nil
}

// Fig5Report regenerates Figure 5: spatial gradients with DPM (% of time
// the worst per-layer gradient exceeds 15 °C).
func Fig5Report(f FigureConfig) (*report.Table, *Matrix, error) {
	m, err := f.matrix(true)
	if err != nil {
		return nil, nil, err
	}
	return metricTableSpread(m, "Fig. 5: Spatial Gradients (With DPM) — % time > 15 °C", func(c Cell) float64 { return c.GradientPct }, func(s CellSpread) float64 { return s.GradientPct }), m, nil
}

// Fig6Report regenerates Figure 6: thermal cycles with DPM (% of windows
// with core-averaged ΔT > 20 °C) for EXP-1 and EXP-3, as in the paper.
func Fig6Report(f FigureConfig) (*report.Table, *Matrix, error) {
	if f.Exps == nil {
		f.Exps = []floorplan.Experiment{floorplan.EXP1, floorplan.EXP3}
	}
	m, err := f.matrix(true)
	if err != nil {
		return nil, nil, err
	}
	return metricTableSpread(m, "Fig. 6: Thermal Cycles (With DPM) — % windows ΔT > 20 °C", func(c Cell) float64 { return c.CyclePct }, func(s CellSpread) float64 { return s.CyclePct }), m, nil
}

// ReliabilityReport is the lifetime extension of the figure set (not a
// paper figure): it reruns the Figure-3 sweep with the streaming
// lifetime tracker attached and renders the worst-block thermal-cycling
// damage (JEDEC reference-cycle equivalents) and the relative-MTTF
// estimate per (policy, experiment) cell. With Replicates > 1 the cells
// carry mean±stddev like every other matrix report.
func ReliabilityReport(f FigureConfig) (damage, mttf *report.Table, m *Matrix, err error) {
	m, err = Run(MatrixConfig{
		Exps:        f.Exps,
		Benchmarks:  f.Benchmarks,
		DurationS:   f.DurationS,
		Seed:        f.Seed,
		Replicates:  f.Replicates,
		Reliability: true,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	damage = metricTableSpread(m, "Lifetime: worst-block thermal-cycling damage (reference cycles)",
		func(c Cell) float64 { return c.WorstCycleDamage }, func(s CellSpread) float64 { return s.WorstCycleDamage })
	mttf = metricTableSpread(m, "Lifetime: MTTF relative to an unstressed reference device",
		func(c Cell) float64 { return c.RelMTTF }, func(s CellSpread) float64 { return s.RelMTTF })
	return damage, mttf, m, nil
}

// WriteAllFigures runs every figure sweep and writes the reports to w.
// It returns the matrices for further inspection.
func WriteAllFigures(w io.Writer, f FigureConfig) (noDPM, withDPM *Matrix, err error) {
	t1, err := TableIReport(f.Seed)
	if err != nil {
		return nil, nil, err
	}
	for _, t := range []*report.Table{t1, TableIIReport(), Fig2Report()} {
		if err := t.Render(w); err != nil {
			return nil, nil, err
		}
		fmt.Fprintln(w)
	}
	hs, perf, m3, err := Fig3Report(f)
	if err != nil {
		return nil, nil, err
	}
	t4, m4, err := Fig4Report(f)
	if err != nil {
		return nil, nil, err
	}
	// Figures 4-6 share the with-DPM matrix.
	t5 := metricTableSpread(m4, "Fig. 5: Spatial Gradients (With DPM) — % time > 15 °C", func(c Cell) float64 { return c.GradientPct }, func(s CellSpread) float64 { return s.GradientPct })
	t6 := metricTableSpread(m4, "Fig. 6: Thermal Cycles (With DPM) — % windows ΔT > 20 °C", func(c Cell) float64 { return c.CyclePct }, func(s CellSpread) float64 { return s.CyclePct })
	// Energy view backing the paper's claim that Adapt3D composes with
	// power management to save energy.
	tE := metricTableSpread(m4, "Energy: average chip power (W) with DPM", func(c Cell) float64 { return c.AvgPowerW }, func(s CellSpread) float64 { return s.AvgPowerW })
	for _, t := range []*report.Table{hs, perf, t4, t5, t6, tE} {
		if err := t.Render(w); err != nil {
			return nil, nil, err
		}
		fmt.Fprintln(w)
	}
	return m3, m4, nil
}
