// Package repro is a full reproduction of "Dynamic Thermal Management in
// 3D Multicore Architectures" (Coskun, Ayala, Atienza, Rosing, Leblebici —
// DATE 2009): a 3D-stacked multicore thermal simulation stack (floorplans,
// HotSpot-style RC thermal model with TSV-aware interlayer interfaces,
// UltraSPARC-T1-based power model with temperature-dependent leakage,
// multi-queue scheduler, synthetic Table-I workloads) together with every
// dynamic thermal management policy the paper evaluates — clock gating,
// three DVFS variants, thermal migration, Adaptive-Random — and the
// paper's contribution, the Adapt3D thermally-aware job allocator, plus
// hybrid combinations and DPM.
//
// This root package is a thin facade over the internal packages: it
// exposes the types needed to build systems, run simulations, compose
// policies, and regenerate the paper's tables and figures. See the
// runnable programs under examples/ and cmd/ for usage.
package repro

import (
	"io"

	"repro/internal/exp"
	"repro/internal/floorplan"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/reliability"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// Re-exported types: the stable public surface of the library.
type (
	// Experiment selects one of the paper's 3D configurations.
	Experiment = floorplan.Experiment
	// Stack is a 3D chip floorplan.
	Stack = floorplan.Stack
	// StackSpec is the declarative form of a stack, and the one stack
	// input of a SimConfig (see ExperimentSpec).
	StackSpec = floorplan.StackSpec
	// ThermalModel is the compact RC network of a stack plus package.
	ThermalModel = thermal.Model
	// ThermalParams are the physical constants of the thermal model.
	ThermalParams = thermal.Params
	// PowerModel is the chip power model.
	PowerModel = power.Model
	// Policy is a dynamic thermal management policy.
	Policy = policy.Policy
	// SimConfig describes one simulation run: its stack (StackSpec),
	// policy, job trace, duration, DPM and lifetime switches. The
	// paper's 100 ms tick, 85 °C threshold and 80 °C preferred
	// temperature are fixed.
	SimConfig = sim.Config
	// SimResult is the outcome of one run.
	SimResult = sim.Result
	// Benchmark is a Table I workload.
	Benchmark = workload.Benchmark
	// Job is one schedulable thread.
	Job = workload.Job
	// MetricsSummary is the paper's metric set for one run.
	MetricsSummary = metrics.Summary
	// Adapt3D is the paper's thermally-aware job allocator.
	Adapt3D = policy.Adapt3D
	// Adapt3DConfig holds the Adapt3D constants.
	Adapt3DConfig = policy.Adapt3DConfig
	// FigureConfig controls figure regeneration sweeps.
	FigureConfig = exp.FigureConfig
	// ReliabilityReport is the per-block wear report a run carries in
	// SimResult.Lifetime when SimConfig.TrackLifetime is set.
	ReliabilityReport = reliability.Report
)

// The four experimental configurations (Figure 1).
const (
	EXP1 = floorplan.EXP1
	EXP2 = floorplan.EXP2
	EXP3 = floorplan.EXP3
	EXP4 = floorplan.EXP4
)

// BuildStack constructs the floorplan stack for an experiment with the
// paper's joint interlayer resistivity.
func BuildStack(e Experiment) (*Stack, error) { return floorplan.Build(e) }

// ExperimentSpec returns the declarative spec of an experiment's stack
// with the paper's joint interlayer resistivity: the SimConfig.StackSpec
// that runs it, the spec a sweep job on the experiment simulates.
func ExperimentSpec(e Experiment) (*StackSpec, error) {
	spec, err := floorplan.SpecWithResistivity(e, 0)
	if err != nil {
		return nil, err
	}
	return &spec, nil
}

// DefaultDPM returns the paper's fixed-timeout power manager (a 300 ms
// idle timeout) for SimConfig.DPM; the zero value runs without one.
func DefaultDPM() policy.DPM { return policy.DefaultDPM() }

// NewThermalModel builds the block-mode thermal model with the default
// (paper-calibrated) parameters.
func NewThermalModel(s *Stack) (*ThermalModel, error) {
	return thermal.NewBlockModel(s, thermal.DefaultParams())
}

// DefaultThermalParams returns the Table-II-plus-package parameter set.
func DefaultThermalParams() ThermalParams { return thermal.DefaultParams() }

// DefaultPowerModel returns the Section IV-B power model.
func DefaultPowerModel() PowerModel { return power.DefaultModel() }

// Benchmarks returns the Table I workload definitions.
func Benchmarks() []Benchmark { return workload.TableI() }

// BenchmarkByName looks up a Table I workload.
func BenchmarkByName(name string) (Benchmark, error) { return workload.ByName(name) }

// GenerateJobs synthesizes a job trace for a benchmark (see
// workload.Generate for the model).
func GenerateJobs(b Benchmark, numCores int, durationS float64, seed int64) ([]Job, error) {
	return workload.Generate(workload.GenConfig{Bench: b, NumCores: numCores, DurationS: durationS, Seed: seed})
}

// NewAdapt3D builds the paper's policy for a stack with offline thermal
// indices derived from a steady-state solve.
func NewAdapt3D(s *Stack, seed int64) (*Adapt3D, error) {
	m, err := NewThermalModel(s)
	if err != nil {
		return nil, err
	}
	cfg := policy.DefaultAdapt3DConfig()
	cfg.Seed = seed
	return policy.NewAdapt3D(s, m, cfg)
}

// NewDefaultPolicy returns the baseline OS load balancer.
func NewDefaultPolicy() Policy { return policy.NewDefault() }

// PolicySet builds the full 14-policy roster for a stack (the paper's
// 11 plus the lifetime-aware DVFS_Rel and the model-predictive
// MPC_Thermal/MPC_Rel pair) in the paper's Figure 3 order.
func PolicySet(s *Stack, seed int64) ([]Policy, error) {
	set := make([]Policy, len(exp.PolicyOrder))
	for i, name := range exp.PolicyOrder {
		p, err := PolicyByName(name, s, seed)
		if err != nil {
			return nil, err
		}
		set[i] = p
	}
	return set, nil
}

// PolicyByName builds one policy from the roster by its Figure 3 name.
func PolicyByName(name string, s *Stack, seed int64) (Policy, error) {
	return exp.BuildPolicy(name, s, seed)
}

// PolicyNames lists the roster in the paper's Figure 3 order.
func PolicyNames() []string { return append([]string{}, exp.PolicyOrder...) }

// Run executes one simulation.
func Run(cfg SimConfig) (*SimResult, error) { return sim.Run(cfg) }

// WriteAllFigures regenerates Tables I-II and Figures 2-6, writing the
// report tables to w.
func WriteAllFigures(w io.Writer, f FigureConfig) error {
	_, _, err := exp.WriteAllFigures(w, f)
	return err
}

// RenderStack draws an ASCII view of a stack's floorplan (Figure 1).
func RenderStack(s *Stack) string { return floorplan.RenderStack(s, 46, 12) }
