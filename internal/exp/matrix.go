package exp

import (
	"context"
	"fmt"

	"repro/internal/floorplan"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// MatrixConfig parameterizes a policy x experiment sweep.
type MatrixConfig struct {
	// Exps are the stack configurations to sweep (default: all four).
	Exps []floorplan.Experiment
	// Benchmarks are Table I benchmark names; the reported metrics are
	// averaged across them (default: a representative mix).
	Benchmarks []string
	// Policies restricts the roster (default: PolicyOrder).
	Policies []string
	// UseDPM composes the fixed-timeout power manager (Figures 4-6).
	UseDPM bool
	// DurationS per run (default 300 s; the paper uses half-hour traces).
	DurationS float64
	// Seed drives trace generation and stochastic policies.
	Seed int64
	// Replicates runs every (policy, experiment, benchmark) combination
	// under that many independent seeds (sweep.DefaultSeedStride apart)
	// and reports mean cells with a stddev Spread. 0 or 1 runs the
	// single-seed sweep the paper figures use.
	Replicates int
	// Reliability attaches the streaming lifetime tracker to every run
	// and fills the cells' WorstCycleDamage/RelMTTF columns.
	Reliability bool
}

// DefaultBenchmarks is the workload mix driving the figure sweeps: four
// Table I applications spanning the utilization regimes the paper's
// suite covers (its eight benchmarks average ~37% utilization).
func DefaultBenchmarks() []string {
	return []string{"Web-med", "Web&DB", "Database", "MPlayer&Web"}
}

// Cell is the aggregated outcome for one (policy, experiment) pair.
type Cell struct {
	Policy string
	Exp    floorplan.Experiment

	HotSpotPct  float64 // mean over benchmarks
	GradientPct float64
	CyclePct    float64

	// NormPerf is mean(baseline response / policy response) over the
	// benchmark mix (1.0 for the baseline itself, <1 when slower).
	NormPerf float64
	// DelayPct is the mean completion-time increase vs Default, percent.
	DelayPct float64

	AvgPowerW    float64
	EnergyJ      float64
	MaxTempC     float64
	AvgCoreTempC float64
	MaxVerticalC float64
	Migrations   int

	// WorstCycleDamage is the benchmark-mean of the run's worst-block
	// thermal-cycling damage and RelMTTF the benchmark-mean relative
	// MTTF estimate; both are zero unless the sweep ran with
	// MatrixConfig.Reliability.
	WorstCycleDamage float64
	RelMTTF          float64

	// Spread holds the across-replicate sample stddev of every metric
	// when the sweep ran with Replicates > 1; nil otherwise.
	Spread *CellSpread
}

// CellSpread is the across-replicate sample standard deviation of each
// Cell metric (the ± of a mean ± stddev cell).
type CellSpread struct {
	Replicates int

	HotSpotPct       float64
	GradientPct      float64
	CyclePct         float64
	NormPerf         float64
	DelayPct         float64
	AvgPowerW        float64
	EnergyJ          float64
	MaxTempC         float64
	AvgCoreTempC     float64
	MaxVerticalC     float64
	Migrations       float64
	WorstCycleDamage float64
	RelMTTF          float64
}

// Matrix is the full sweep result.
type Matrix struct {
	Config MatrixConfig
	// Cells indexed [policy][exp] following Config.Policies/Config.Exps.
	Cells [][]Cell
}

// Get returns the cell for a policy name and experiment.
func (m *Matrix) Get(policyName string, e floorplan.Experiment) (Cell, error) {
	for i, p := range m.Config.Policies {
		if p != policyName {
			continue
		}
		for j, x := range m.Config.Exps {
			if x == e {
				return m.Cells[i][j], nil
			}
		}
	}
	return Cell{}, fmt.Errorf("exp: no cell for %q/%v", policyName, e)
}

func (c MatrixConfig) withDefaults() MatrixConfig {
	if c.Exps == nil {
		c.Exps = floorplan.AllExperiments()
	}
	if c.Benchmarks == nil {
		c.Benchmarks = DefaultBenchmarks()
	}
	if c.Policies == nil {
		c.Policies = append([]string{}, PolicyOrder...)
	}
	if c.DurationS == 0 {
		c.DurationS = 300
	}
	return c
}

// Run executes the sweep through the sweep orchestrator: the
// configuration expands to a deterministic job list (see Spec), runs
// on a bounded worker pool, and the streamed records aggregate into
// the figure matrix (see Aggregate).
//
// For fairness, every policy replays the exact same pre-generated job
// trace per (experiment, benchmark, replicate), and the per-benchmark
// performance is normalized against the Default policy on that same
// trace before averaging. Runs are independent simulations; records
// aggregate in a fixed order, so the sweep stays deterministic no
// matter how the pool schedules it.
func Run(cfg MatrixConfig) (*Matrix, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation: canceling ctx aborts in-flight
// simulations at their next tick and returns the context's error.
func RunContext(ctx context.Context, cfg MatrixConfig) (*Matrix, error) {
	cfg = cfg.withDefaults()
	for _, name := range cfg.Benchmarks {
		if _, err := workload.ByName(name); err != nil {
			return nil, err
		}
	}
	spec := cfg.Spec()
	if err := Prewarm(spec); err != nil {
		return nil, err
	}
	col := &sweep.Collector{}
	run, runGroup := NewRunners(RunnerHooks{})
	opts := sweep.Options{Group: GroupKey, RunGroup: runGroup}
	if _, err := sweep.Execute(ctx, spec.Expand(), run, opts, col); err != nil {
		return nil, err
	}
	return cfg.Aggregate(col.Records)
}
