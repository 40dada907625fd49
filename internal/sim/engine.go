package sim

import (
	"context"
	"fmt"
	"io"
	"math"

	"repro/internal/floorplan"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/reliability"
	"repro/internal/sched"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// Result is the outcome of one simulation run.
type Result struct {
	PolicyName string
	// UseDPM reports whether the run composed a power manager (a
	// non-zero Config.DPM).
	UseDPM bool

	Metrics metrics.Summary
	Sched   sched.Stats

	EnergyJ   float64
	AvgPowerW float64

	Ticks         int
	JobsGenerated int
	JobsCompleted int
	SleepEntries  int // DPM sleep transitions
	GatedTicks    int // core-ticks spent clock gated

	// Lifetime is the per-block wear report (cycling damage, EM
	// acceleration, relative MTTF) when Config.TrackLifetime is set;
	// nil otherwise. Its core blocks are the per-core wear.
	Lifetime *reliability.Report

	// FinalBlockTempsC is the block temperature field at the end of the
	// run (stack block order), usable with thermal.RenderHeatmap.
	FinalBlockTempsC []float64
}

// paperPower is the paper's power model, which every engine reads and
// none modifies.
var paperPower = power.DefaultModel()

// buildThermal returns the thermal model, and through Model.Stack the
// floorplan stack, for a validated config. The model is shared
// process-wide under ModelKey(cfg), so every engine, batch lane, fork
// and Prewarm of one key reads one model and its memoized
// factorizations.
func buildThermal(cfg Config) (*thermal.Model, error) {
	key, err := ModelKey(cfg)
	if err != nil {
		return nil, err
	}
	return thermal.SharedModel(key, func() (*thermal.Model, error) {
		stack, err := cfg.StackSpec.Build()
		if err != nil {
			return nil, fmt.Errorf("sim: stack spec invalid: %w", err)
		}
		return newModel(stack, &cfg)
	})
}

// newModel builds the thermal model of stack in the mode cfg selects:
// grid mode when both grid dimensions are set, block mode otherwise.
func newModel(stack *floorplan.Stack, cfg *Config) (*thermal.Model, error) {
	if cfg.GridRows > 0 && cfg.GridCols > 0 {
		return thermal.NewGridModel(stack, thermal.DefaultParams(), cfg.GridRows, cfg.GridCols)
	}
	return thermal.NewBlockModel(stack, thermal.DefaultParams())
}

// Prewarm builds cfg's shared thermal model and factors its
// steady-state and transient systems, so a worker pool about to execute
// many Run calls over the same stack starts from a warm model instead
// of racing to build the first one. It reads only the fields ModelKey
// reads (StackSpec, GridRows, GridCols), and rejects what ModelKey
// rejects, so a config with no canonical identity never warms a
// factorization a corrected run would not use.
func Prewarm(cfg Config) error {
	model, err := buildThermal(cfg)
	if err != nil {
		return err
	}
	idle := make([]float64, model.NumBlocks())
	if _, err := model.SteadyState(idle); err != nil {
		return err
	}
	_, err = model.NewTransient(tickS, nil)
	return err
}

// tickCount returns the number of whole sampling intervals in a run of
// durationS seconds at tickS per tick. Plain truncation loses ticks when
// the division lands just below an integer (0.3/0.1 = 2.9999999999999996
// would yield 2 ticks instead of 3), silently shortening any run whose
// duration is not exactly representable in binary; an epsilon-tolerant
// round recovers those, while genuinely fractional tick counts
// (0.25/0.1 = 2.5) still truncate to whole completed intervals.
func tickCount(durationS, tickS float64) int {
	ratio := durationS / tickS
	rounded := math.Round(ratio)
	if math.Abs(ratio-rounded) <= 1e-9*math.Max(1, math.Abs(ratio)) {
		return int(rounded)
	}
	return int(ratio)
}

// Engine holds one run's models and every per-tick scratch buffer,
// preallocated once so the steady-state tick loop performs no heap
// allocations (see TestTickLoopAllocationContract).
//
// The zero value is not usable; construct with NewEngine. Beyond the
// one-shot Run entry points, an Engine supports stepping (Step/Finish)
// and branching (Fork/Restore, in fork.go): a fork shares the immutable
// thermal model, its factorizations and the job trace, copies all
// mutable state, and resumes bitwise-identically to an uninterrupted
// run. An unstepped fork is a checkpoint that Restore rewinds to.
type Engine struct {
	cfg Config
	// model is the run's thermal model; model.Stack is the floorplan
	// stack under simulation.
	model   *thermal.Model
	sensors *thermal.Sensors
	machine *sched.Machine
	tr      *thermal.Transient

	collector *metrics.Collector
	energy    *power.EnergyMeter
	lifetime  *reliability.Tracker
	obs       Observer
	rollout   *rolloutSim

	jobs    []workload.Job
	jobIdx  int
	nTicks  int
	tickIdx int // next tick to execute; == res.Ticks between ticks
	n       int // cores

	res  *Result
	view policy.View
	done <-chan struct{}

	// freqScale caches each core's floorplan FreqScale (1 for
	// homogeneous stacks, <1 for "LITTLE" tiers of heterogeneous
	// spec-built stacks); immutable per run, so forks share it.
	freqScale []float64
	// plan is paperPower compiled for the stack; immutable, so forks
	// share it too.
	plan *power.Plan

	// Per-tick scratch, reused across every tick.
	states     []power.CoreState
	levels     []power.VfLevel
	utils      []float64
	speeds     []float64
	mem        []float64
	queueLens  []int
	coreIn     []power.CoreInput
	gated      []bool
	sleeping   []bool
	blockPower []float64
	nodeTemps  []float64
	blockTemps []float64
	coreTemps  []float64
	readings   []float64
}

// Run executes one simulation. Prefer RunContext when the run should
// be cancelable; Run remains for context-free callers.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is the canonical run entry: it executes one simulation —
// a batch of one, through RunBatchContext — polling ctx once per
// simulated tick and aborting with its error on cancellation.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	res, err := RunBatchContext(ctx, []Config{cfg})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// NewEngine validates the config and builds a stepping-ready engine:
// models constructed, thermal state initialized to the idle fixed
// point, all per-tick scratch preallocated. Use it instead of Run when
// the caller drives the loop itself — stepping (Step, then Finish),
// checkpointing (Fork, then Restore), or rollouts (Fork).
func NewEngine(cfg Config) (*Engine, error) { return newEngine(cfg) }

// Step executes the next sampling interval. It returns io.EOF once
// the configured duration is exhausted (the run is complete; call
// Finish), or the first simulation error.
func (e *Engine) Step() error {
	if e.tickIdx >= e.nTicks {
		return io.EOF
	}
	return e.tick(e.tickIdx)
}

// TickIndex returns the index of the next tick to execute; it equals
// the number of completed ticks.
func (e *Engine) TickIndex() int { return e.tickIdx }

// TotalTicks returns the number of sampling intervals in the run.
func (e *Engine) TotalTicks() int { return e.nTicks }

// Finish summarizes the run into its Result. Callers driving the
// engine via Step call it once at the end; Run does the equivalent
// internally. The error is always nil.
func (e *Engine) Finish() (*Result, error) { return e.finish(), nil }

// newEngine validates the config, builds the models, initializes the
// thermal state the way the paper initializes HotSpot (idle steady state
// with two leakage fixed-point iterations), and preallocates all
// per-tick scratch.
func newEngine(cfg Config) (*Engine, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	model, err := buildThermal(cfg)
	if err != nil {
		return nil, err
	}
	stack := model.Stack
	e, err := newEngineState(cfg, model, cfg.Jobs)
	if err != nil {
		return nil, err
	}
	e.freqScale = make([]float64, e.n)
	for c, b := range stack.Cores() {
		e.freqScale[c] = b.FreqScale
	}
	e.plan = paperPower.Plan(stack)
	for c := range e.states {
		e.states[c] = power.StateIdle
	}

	// Initialize the thermal state with the steady-state temperatures of
	// the idle chip (two fixed-point iterations to make leakage
	// consistent with temperature).
	e.fillCoreInputs()
	idleIn := power.ChipInput{Cores: e.coreIn, AmbientC: model.Params.AmbientC}
	if err := e.plan.ComputeInto(e.blockPower, idleIn); err != nil {
		return nil, err
	}
	nodeTemps, err := model.SteadyState(e.blockPower)
	if err != nil {
		return nil, err
	}
	if err := model.BlockTempsInto(e.blockTemps, nodeTemps); err != nil {
		return nil, err
	}
	idleIn.BlockTempsC = e.blockTemps
	if err := e.plan.ComputeInto(e.blockPower, idleIn); err != nil {
		return nil, err
	}
	if nodeTemps, err = model.SteadyState(e.blockPower); err != nil {
		return nil, err
	}
	copy(e.nodeTemps, nodeTemps)

	if e.tr, err = model.NewTransient(tickS, e.nodeTemps); err != nil {
		return nil, err
	}
	if err := model.BlockTempsInto(e.blockTemps, e.nodeTemps); err != nil {
		return nil, err
	}
	if err := model.CoreTempsInto(e.coreTemps, e.nodeTemps); err != nil {
		return nil, err
	}
	e.sensors.ReadInto(e.readings, e.coreTemps)

	if cfg.ctx != nil {
		e.done = cfg.ctx.Done()
	}
	e.obs = cfg.Observer
	e.attachRollout()
	return e, nil
}

// newEngineState builds the mutable half of an engine around its
// immutable run inputs (config, thermal model with its stack, job
// trace): every per-tick scratch buffer, the sensor bank, the scheduler
// machine, the metrics collector, the energy meter, the Result, the
// policy View, and the wear tracker when cfg.TrackLifetime is set.
// newEngine then settles it at the idle fixed point; a fork copies
// another engine's state into it.
func newEngineState(cfg Config, model *thermal.Model, jobs []workload.Job) (*Engine, error) {
	stack := model.Stack
	n, nb := stack.NumCores(), stack.NumBlocks()
	e := &Engine{
		cfg:    cfg,
		model:  model,
		jobs:   jobs,
		nTicks: tickCount(cfg.DurationS, tickS),
		n:      n,

		states:     make([]power.CoreState, n),
		levels:     make([]power.VfLevel, n),
		utils:      make([]float64, n),
		speeds:     make([]float64, n),
		mem:        make([]float64, n),
		queueLens:  make([]int, n),
		coreIn:     make([]power.CoreInput, n),
		gated:      make([]bool, n),
		sleeping:   make([]bool, n),
		blockPower: make([]float64, nb),
		nodeTemps:  make([]float64, model.NumNodes),
		blockTemps: make([]float64, nb),
		coreTemps:  make([]float64, n),
		readings:   make([]float64, n),

		energy: power.NewEnergyMeter(),
		res: &Result{
			PolicyName:    cfg.Policy.Name(),
			UseDPM:        cfg.DPM.TimeoutS > 0,
			JobsGenerated: len(jobs),
		},
		view: policy.View{
			TickS:      tickS,
			Stack:      stack,
			DVFS:       paperPower.DVFS,
			ThresholdC: thresholdC,
			TprefC:     tprefC,
		},
	}
	var err error
	if e.sensors, err = thermal.NewSensors(cfg.Sensors); err != nil {
		return nil, err
	}
	if e.machine, err = sched.NewMachine(n, migrationCostS); err != nil {
		return nil, err
	}
	if e.collector, err = metrics.NewCollector(stack, metrics.CollectorConfig{
		HotSpotC:    thresholdC,
		CycleWindow: cycleWindowTicks,
	}); err != nil {
		return nil, err
	}
	if cfg.TrackLifetime {
		if e.lifetime, err = reliability.NewTracker(nb, tickS); err != nil {
			return nil, err
		}
		names := make([]string, nb)
		layers := make([]int, nb)
		for i, b := range stack.Blocks() {
			names[i] = b.Name
			layers[i] = b.Layer
		}
		if err := e.lifetime.SetMeta(names, layers); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// attachRollout gives the engine a fresh self-rollout adapter and
// wires it into a planning policy (MPC_Thermal/MPC_Rel): the policy's
// candidate actions are then scored by forked copies of this very
// engine. Any earlier adapter belonged to the previous policy and is
// dropped; other policies get none.
func (e *Engine) attachRollout() {
	e.rollout = nil
	if pl, ok := e.cfg.Policy.(policy.Planner); ok {
		e.rollout = &rolloutSim{host: e}
		pl.AttachRollout(e.rollout)
	}
}

// fillCoreInputs refreshes the reused per-core power-model input buffer
// from the current states, levels, utils, and memory activity.
func (e *Engine) fillCoreInputs() {
	for c := range e.coreIn {
		e.coreIn[c] = power.CoreInput{
			State:       e.states[c],
			Level:       e.levels[c],
			Util:        e.utils[c],
			MemActivity: e.mem[c],
		}
	}
}

// tick advances the simulation by one sampling interval. In steady state
// (no arriving or completing jobs) it performs no heap
// allocations. It is Step's composition of tickPre (scheduling and
// power), the thermal step, and tickPost (readback, metrics, hooks);
// the lockstep driver behind Run and RunBatchContext runs the same
// three phases with the thermal steps of its co-scheduled runs fused
// into one panel solve, and MPC rollout lanes run tickPre and that
// fused step with a lean readback of their own.
func (e *Engine) tick(tick int) error {
	if err := e.tickPre(tick); err != nil {
		return err
	}
	if err := e.tr.StepInto(e.nodeTemps, e.blockPower); err != nil {
		return err
	}
	return e.tickPost(tick)
}

// tickPre runs the pre-thermal phases of one sampling interval:
// cancellation check, job dispatch, policy decisions, DPM, workload
// execution, and the leakage-aware power computation, leaving the
// interval's per-block power in e.blockPower ready for the thermal
// step.
func (e *Engine) tickPre(tick int) error {
	cfg := &e.cfg
	select {
	case <-e.done:
		return cfg.ctx.Err()
	default:
	}
	now := float64(tick) * tickS
	e.machine.QueueLensInto(e.queueLens)
	e.view.NowS = now
	e.view.TempsC = e.readings
	e.view.Utils = e.utils
	e.view.QueueLens = e.queueLens
	e.view.States = e.states
	e.view.Levels = e.levels

	// 1. Dispatch arrivals for this interval via the policy.
	for e.jobIdx < len(e.jobs) && e.jobs[e.jobIdx].ArrivalS < now+tickS {
		c := cfg.Policy.AssignCore(&e.view, e.jobs[e.jobIdx])
		if c < 0 || c >= e.n {
			return fmt.Errorf("sim: policy %s assigned job to invalid core %d", cfg.Policy.Name(), c)
		}
		if err := e.machine.Enqueue(e.jobs[e.jobIdx], c); err != nil {
			return err
		}
		if e.sleeping[c] {
			e.sleeping[c] = false // wake on dispatch
		}
		e.jobIdx++
		e.machine.QueueLensInto(e.queueLens)
	}

	// 2. Policy decisions for the interval.
	d := cfg.Policy.Tick(&e.view)
	if d.Levels != nil {
		if len(d.Levels) != e.n {
			return fmt.Errorf("sim: policy %s returned %d levels for %d cores", cfg.Policy.Name(), len(d.Levels), e.n)
		}
		copy(e.levels, d.Levels)
	}
	for c := range e.gated {
		e.gated[c] = false
	}
	if d.Gate != nil {
		if len(d.Gate) != e.n {
			return fmt.Errorf("sim: policy %s returned %d gates for %d cores", cfg.Policy.Name(), len(d.Gate), e.n)
		}
		copy(e.gated, d.Gate)
	}
	for _, m := range d.Migrations {
		if err := e.migrate(m); err != nil {
			return err
		}
	}

	// 3. DPM: fixed timeout to sleep; waking happened at dispatch.
	if cfg.DPM.TimeoutS > 0 {
		for c := 0; c < e.n; c++ {
			if !e.sleeping[c] && e.machine.QueueLen(c) == 0 && cfg.DPM.ShouldSleep(e.machine.IdleDurationS(c)) {
				e.sleeping[c] = true
				e.res.SleepEntries++
			}
		}
	}

	// 4. Execute the interval.
	for c := 0; c < e.n; c++ {
		switch {
		case e.gated[c], e.sleeping[c]:
			e.speeds[c] = 0
		default:
			// e.freqScale is exactly 1.0 on homogeneous stacks, which
			// multiplies to a bitwise-identical float64.
			e.speeds[c] = paperPower.DVFS.FreqScale(e.levels[c]) * e.freqScale[c]
		}
		if e.gated[c] {
			e.res.GatedTicks++
		}
	}
	if err := e.machine.AdvanceInto(e.utils, tickS, e.speeds); err != nil {
		return err
	}

	// 5. Derive core states and compute power with the leakage loop
	// fed by the previous interval's temperatures.
	e.machine.MemActivityInto(e.mem)
	for c := 0; c < e.n; c++ {
		switch {
		case e.sleeping[c]:
			e.states[c] = power.StateSleep
		case e.gated[c]:
			e.states[c] = power.StateGated
		case e.machine.QueueLen(c) > 0 || e.utils[c] > 0:
			e.states[c] = power.StateActive
		default:
			e.states[c] = power.StateIdle
		}
	}
	e.fillCoreInputs()
	in := power.ChipInput{
		Cores:       e.coreIn,
		BlockTempsC: e.blockTemps,
		AmbientC:    e.model.Params.AmbientC,
	}
	if err := e.plan.ComputeInto(e.blockPower, in); err != nil {
		return err
	}
	if err := e.energy.Accumulate(e.model.Stack, e.blockPower, tickS); err != nil {
		return err
	}
	return nil
}

// migrate applies one migration: a head swap (Migrate) or a tail move
// (MoveTail), migration cost charged, then the target core woken if it
// was sleeping, since a migration target must be awake to run the job.
// Migrating from an empty queue is a no-op.
func (e *Engine) migrate(m policy.Migration) error {
	var err error
	if m.Tail {
		err = e.machine.MoveTail(m.From, m.To)
	} else {
		err = e.machine.Migrate(m.From, m.To)
	}
	if err != nil {
		return err
	}
	if e.machine.QueueLen(m.To) > 0 && e.sleeping[m.To] {
		e.sleeping[m.To] = false
	}
	return nil
}

// tickPost runs the post-thermal phases of one sampling interval: block
// and core temperature readback, sensing, metrics, reliability
// tracking, and hooks. The caller must have advanced the
// thermal network into e.nodeTemps (Transient.StepInto on the
// sequential path, TransientBatch.StepInto on the batched one).
func (e *Engine) tickPost(tick int) error {
	// 6. Read back the advanced thermal state and the sensors.
	if err := e.readback(); err != nil {
		return err
	}
	e.sensors.ReadInto(e.readings, e.coreTemps)

	// 7. Metrics (on true temperatures, as the paper evaluates the
	// simulator state, not the noisy sensor stream).
	if err := e.collector.Record(e.blockTemps, e.coreTemps); err != nil {
		return err
	}
	if e.lifetime != nil {
		if err := e.lifetime.Observe(e.blockTemps); err != nil {
			return err
		}
	}
	if e.obs != nil {
		e.obs.ObserveTemps(e.blockTemps, e.coreTemps)
	}
	e.res.Ticks++
	e.tickIdx = tick + 1
	if e.obs != nil {
		e.obs.ObserveTick(e.res.Ticks)
	}
	return nil
}

// readback derives the block and core temperatures from the advanced
// node temperatures.
func (e *Engine) readback() error {
	if err := e.model.BlockTempsInto(e.blockTemps, e.nodeTemps); err != nil {
		return err
	}
	return e.model.CoreTempsInto(e.coreTemps, e.nodeTemps)
}

// finish summarizes the run into the result.
func (e *Engine) finish() *Result {
	res := e.res
	res.Metrics = e.collector.Summarize()
	res.FinalBlockTempsC = append([]float64(nil), e.blockTemps...)
	if e.lifetime != nil {
		rep := e.lifetime.Report()
		res.Lifetime = &rep
	}
	res.Sched = e.machine.ComputeStats()
	res.JobsCompleted = res.Sched.Completed
	res.EnergyJ = e.energy.TotalJ()
	res.AvgPowerW = e.energy.AveragePowerW()
	return res
}
