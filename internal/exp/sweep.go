package exp

import (
	"context"
	"fmt"
	"math"

	"repro/internal/floorplan"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// Spec translates the matrix configuration into the declarative sweep
// spec the orchestrator expands. Exposed so cmd/dtmsweep can shard,
// checkpoint, and resume the same job space exp.Run executes inline.
func (c MatrixConfig) Spec() sweep.Spec {
	c = c.withDefaults()
	return sweep.Spec{
		Scenarios:   sweep.ScenariosFor(c.Exps),
		Policies:    c.Policies,
		Benchmarks:  c.Benchmarks,
		Replicates:  c.Replicates,
		Seed:        c.Seed,
		Solvers:     []thermal.SolverKind{c.Solver},
		DurationsS:  []float64{c.DurationS},
		UseDPM:      c.UseDPM,
		Reliability: c.Reliability,
	}
}

// StressScenarios is the reliability-stress extension of the scenario
// space: the paper's deepest stack (EXP-4) with the joint interlayer
// resistivity doubled, modelling a degraded TSV bond whose poor
// vertical heat removal concentrates thermal cycling — the corner the
// lifetime tracker and the wear-aware DVFS_Rel policy exist for. The
// name participates in job keys as a label; the physics (Exp + joint
// resistivity) remains the identity, so these can never collide with
// nominal-bond runs.
func StressScenarios() []sweep.Scenario {
	return []sweep.Scenario{
		{Name: "degraded-tsv", Exp: floorplan.EXP4, JointResistivityMKW: 0.46},
	}
}

// RunnerHooks are optional observation points a runner's simulations
// report into. All hooks must be safe for concurrent calls: one runner
// serves every worker of a pool, so the observer's methods fire from
// many simulations at once.
type RunnerHooks struct {
	// Observer is attached to every simulation the runner executes.
	// The serving layer feeds its ticks-per-second throughput metric
	// from ObserveTick; keep implementations to an atomic counter bump
	// so the tick loop stays allocation-free.
	Observer sim.Observer
}

// JobConfig translates one sweep job into the simulator configuration
// the runners execute: the scenario resolved to its StackSpec (see
// modelConfig), the stack built from it (Adapt3D's offline thermal
// indices must be derived from the chip being simulated, not the
// nominal-bond one — the degraded-tsv stress scenario differs exactly
// there, and declarative stacks carry arbitrary geometry), the workload
// fetched through traces so every policy replays the identical arrival
// sequence, the policy constructed against that stack, and lifetime
// tracking wired from the job's reliability flag. The session subsystem
// builds its live engines through this same mapping, so an interactive
// run of a job is the very simulation a sweep run of it would be.
func JobConfig(traces *workload.TraceCache, j sweep.Job) (sim.Config, error) {
	b, err := workload.ByName(j.Bench)
	if err != nil {
		return sim.Config{}, err
	}
	cfg, err := modelConfig(j.Scenario)
	if err != nil {
		return sim.Config{}, err
	}
	stack, err := cfg.StackSpec.Build()
	if err != nil {
		return sim.Config{}, err
	}
	cfg.Jobs, err = traces.Get(workload.GenConfig{
		Bench:     b,
		NumCores:  stack.NumCores(),
		DurationS: j.DurationS,
		Seed:      j.Seed + int64(b.ID),
	})
	if err != nil {
		return sim.Config{}, err
	}
	if cfg.Policy, err = BuildPolicy(j.Policy, stack, j.Seed, j.Solver); err != nil {
		return sim.Config{}, err
	}
	cfg.UseDPM = j.UseDPM
	cfg.DurationS = j.DurationS
	cfg.Seed = j.Seed
	cfg.Solver = j.Solver
	cfg.TrackLifetime = j.Reliability
	return cfg, nil
}

// NewRunners returns the simulator-backed job runner together with
// its batched counterpart; the job runner is the group runner over one
// job. Both closures share one trace cache, so every policy replays the
// exact same pre-generated job trace per (scenario, benchmark,
// replicate) — the fairness invariant the figure sweeps rely on — and a
// job produces the identical record whichever path executes it. The
// batched runner drives same-system jobs through sim.RunBatch — one
// panel solve per tick over the shared factorization, runs of shorter
// duration retiring mid-batch — and returns records byte-identical to
// the per-job path's; pair it with GroupKey in sweep.Options.
func NewRunners(hooks RunnerHooks) (sweep.RunFunc, sweep.RunGroupFunc) {
	obs := hooks.Observer
	traces := workload.NewTraceCache()
	runGroup := func(ctx context.Context, group []sweep.Job) ([]sweep.Record, error) {
		cfgs := make([]sim.Config, len(group))
		for i, j := range group {
			cfg, err := JobConfig(traces, j)
			if err != nil {
				return nil, err
			}
			cfg.Observer = obs
			cfgs[i] = cfg
		}
		results, err := sim.RunBatchContext(ctx, cfgs)
		if err != nil {
			return nil, err
		}
		recs := make([]sweep.Record, len(group))
		for i, j := range group {
			recs[i] = sweep.NewRecord(j, results[i], 0)
		}
		return recs, nil
	}
	run := func(ctx context.Context, j sweep.Job) (sweep.Record, error) {
		recs, err := runGroup(ctx, []sweep.Job{j})
		if err != nil {
			return sweep.Record{}, err
		}
		return recs[0], nil
	}
	return run, runGroup
}

// GroupKey is the exp-standard sweep grouping key: jobs mapping to the
// same non-empty key build the identical thermal system — same stack
// geometry and interlayer physics, on the shared-cache solver path — so
// their transient factorizations are one *Cholesky and sim.RunBatch can
// advance them through a single panel solve per tick. Policy,
// benchmark, seed, replicate, DPM, reliability tracking and duration
// are deliberately absent: they vary freely across the lanes of a
// batch without affecting the factorization, a shorter run retiring at
// its last tick. Non-cached solver jobs return "" and stay on the
// per-job path.
//
// The model identity comes from sim.ModelKey — the same helper Prewarm
// validates against — so grouping can never diverge from the
// factorization the runs actually share. Scenario labels do not
// participate: two differently-named scenarios with identical physics
// build one thermal system and batch together.
func GroupKey(j sweep.Job) string {
	if j.Solver != thermal.SolverCached {
		return ""
	}
	mc, err := modelConfig(j.Scenario)
	if err != nil {
		// Unresolvable scenario: stay on the per-job path, where the
		// runner reports the error itself.
		return ""
	}
	mc.Solver = j.Solver
	key, err := sim.ModelKey(mc)
	if err != nil {
		// No canonical identity (partial grid spec): stay on the
		// per-job path, where sim.Run reports the config error itself.
		return ""
	}
	return key
}

// modelConfig translates a scenario into the thermal-model-identity
// fields of a sim.Config — its resolved StackSpec and grid — the single
// mapping JobConfig, GroupKey, and Prewarm all build on, so grouping and
// prewarming can never diverge from the model a run actually
// constructs.
func modelConfig(sc sweep.Scenario) (sim.Config, error) {
	spec, err := sc.StackSpec()
	if err != nil {
		return sim.Config{}, err
	}
	return sim.Config{StackSpec: &spec, GridRows: sc.GridRows, GridCols: sc.GridCols}, nil
}

// Prewarm builds every cached-solver scenario's shared thermal model
// and factors its systems before a worker pool starts, so the workers
// don't all block on the first run per stack.
func Prewarm(spec sweep.Spec) error {
	for _, sc := range spec.Scenarios {
		mc, err := modelConfig(sc)
		if err != nil {
			return fmt.Errorf("exp: prewarm %s: %w", sc.ID(), err)
		}
		for _, solver := range spec.Solvers {
			for _, dur := range spec.DurationsS {
				cfg := mc
				cfg.DurationS = dur
				cfg.Solver = solver
				if err := sim.Prewarm(cfg); err != nil {
					return fmt.Errorf("exp: prewarm %s: %w", sc.ID(), err)
				}
			}
		}
	}
	return nil
}

// recKey identifies the record of one logical run within a
// single-solver, single-duration matrix sweep.
type recKey struct {
	policy, scenario, bench string
	replicate               int
}

// Aggregate folds raw sweep records into the figure matrix. It accepts
// records in any order and from any mix of invocations (one inline
// run, several shards, a checkpoint merge), deduplicates repeated
// keys, and verifies completeness: every (policy, scenario, benchmark,
// replicate) cell of the configuration must be present exactly when
// sharded results have all been merged.
//
// Aggregation is deterministic: benchmarks accumulate in configuration
// order within a replicate, replicates average in seed order. With
// Replicates <= 1 the arithmetic reproduces the pre-orchestrator
// exp.Run bit for bit, which the golden tests pin.
func (c MatrixConfig) Aggregate(recs []sweep.Record) (*Matrix, error) {
	cfg := c.withDefaults()
	reps := cfg.Replicates
	if reps <= 0 {
		reps = 1
	}
	// A matrix is a single-solver, single-duration slice of the record
	// space: drop records from other sweep dimensions (a shared
	// checkpoint may hold, say, both cached and dense runs) so they can
	// never silently mix into the cells. If filtering leaves a hole,
	// the completeness check below reports it.
	// Reliability participates in the filter the same way: a shared
	// checkpoint may hold both reliability-enabled and plain records of
	// one logical run (their keys differ by the |rel suffix), and only
	// the configuration's flavour may reach the cells.
	solver := cfg.Solver.String()
	byKey := make(map[recKey]sweep.Record, len(recs))
	for _, r := range sweep.Dedup(recs) {
		if r.Solver != solver || r.DurationS != cfg.DurationS || r.Reliability != cfg.Reliability {
			continue
		}
		byKey[recKey{r.Policy, r.Scenario, r.Bench, r.Replicate}] = r
	}
	get := func(policy string, e floorplan.Experiment, bench string, rep int) (sweep.Record, error) {
		k := recKey{policy, e.String(), bench, rep}
		r, ok := byKey[k]
		if !ok {
			return sweep.Record{}, fmt.Errorf("exp: sweep incomplete: no record for %s on %v (%s, replicate %d)", policy, e, bench, rep)
		}
		return r, nil
	}

	m := &Matrix{Config: cfg}
	m.Cells = make([][]Cell, len(cfg.Policies))
	nb := float64(len(cfg.Benchmarks))
	for pi, p := range cfg.Policies {
		m.Cells[pi] = make([]Cell, len(cfg.Exps))
		for ei, e := range cfg.Exps {
			perRep := make([]Cell, reps)
			for rep := 0; rep < reps; rep++ {
				cell := Cell{Policy: p, Exp: e}
				var norm, delay float64
				for _, bench := range cfg.Benchmarks {
					r, err := get(p, e, bench, rep)
					if err != nil {
						return nil, err
					}
					base, err := get("Default", e, bench, rep)
					if err != nil {
						return nil, err
					}
					cell.HotSpotPct += r.HotSpotPct
					cell.GradientPct += r.GradientPct
					cell.CyclePct += r.CyclePct
					cell.AvgPowerW += r.AvgPowerW
					cell.EnergyJ += r.EnergyJ
					cell.AvgCoreTempC += r.AvgCoreTempC
					if r.MaxTempC > cell.MaxTempC {
						cell.MaxTempC = r.MaxTempC
					}
					if r.MaxVerticalC > cell.MaxVerticalC {
						cell.MaxVerticalC = r.MaxVerticalC
					}
					cell.Migrations += r.Migrations
					cell.WorstCycleDamage += r.RelWorstCycleDamage
					cell.RelMTTF += r.RelMTTF
					norm += metrics.NormalizedPerformance(base.MeanResponseS, r.MeanResponseS)
					delay += metrics.DelayPct(base.MeanResponseS, r.MeanResponseS)
				}
				cell.HotSpotPct /= nb
				cell.GradientPct /= nb
				cell.CyclePct /= nb
				cell.AvgPowerW /= nb
				cell.AvgCoreTempC /= nb
				cell.WorstCycleDamage /= nb
				cell.RelMTTF /= nb
				cell.NormPerf = norm / nb
				cell.DelayPct = delay / nb
				perRep[rep] = cell
			}
			m.Cells[pi][ei] = foldReplicates(perRep)
		}
	}
	return m, nil
}

// foldReplicates averages per-replicate cells into one cell with a
// sample-stddev spread. A single replicate folds to itself (dividing
// by 1 is exact, so replicates=1 sweeps stay bit-identical) and
// carries no spread.
func foldReplicates(perRep []Cell) Cell {
	n := len(perRep)
	if n == 1 {
		return perRep[0]
	}
	out := Cell{Policy: perRep[0].Policy, Exp: perRep[0].Exp}
	mean := func(get func(Cell) float64) float64 {
		s := 0.0
		for _, c := range perRep {
			s += get(c)
		}
		return s / float64(n)
	}
	std := func(get func(Cell) float64, mu float64) float64 {
		s := 0.0
		for _, c := range perRep {
			d := get(c) - mu
			s += d * d
		}
		return math.Sqrt(s / float64(n-1))
	}
	sp := &CellSpread{Replicates: n}
	fold := func(dst *float64, dstStd *float64, get func(Cell) float64) {
		*dst = mean(get)
		*dstStd = std(get, *dst)
	}
	fold(&out.HotSpotPct, &sp.HotSpotPct, func(c Cell) float64 { return c.HotSpotPct })
	fold(&out.GradientPct, &sp.GradientPct, func(c Cell) float64 { return c.GradientPct })
	fold(&out.CyclePct, &sp.CyclePct, func(c Cell) float64 { return c.CyclePct })
	fold(&out.NormPerf, &sp.NormPerf, func(c Cell) float64 { return c.NormPerf })
	fold(&out.DelayPct, &sp.DelayPct, func(c Cell) float64 { return c.DelayPct })
	fold(&out.AvgPowerW, &sp.AvgPowerW, func(c Cell) float64 { return c.AvgPowerW })
	fold(&out.EnergyJ, &sp.EnergyJ, func(c Cell) float64 { return c.EnergyJ })
	fold(&out.MaxTempC, &sp.MaxTempC, func(c Cell) float64 { return c.MaxTempC })
	fold(&out.AvgCoreTempC, &sp.AvgCoreTempC, func(c Cell) float64 { return c.AvgCoreTempC })
	fold(&out.MaxVerticalC, &sp.MaxVerticalC, func(c Cell) float64 { return c.MaxVerticalC })
	fold(&out.WorstCycleDamage, &sp.WorstCycleDamage, func(c Cell) float64 { return c.WorstCycleDamage })
	fold(&out.RelMTTF, &sp.RelMTTF, func(c Cell) float64 { return c.RelMTTF })
	var migr, migrStd float64
	fold(&migr, &migrStd, func(c Cell) float64 { return float64(c.Migrations) })
	out.Migrations = int(math.Round(migr))
	sp.Migrations = migrStd
	out.Spread = sp
	return out
}
