package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/floorplan"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/reliability"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// acc averages per-layer figures over several probes; figures recorded
// with keepMax report their maximum instead.
type acc struct {
	sum  map[string]float64
	n    map[string]int
	peak map[string]float64
}

func newAcc() *acc {
	return &acc{sum: map[string]float64{}, n: map[string]int{}, peak: map[string]float64{}}
}

func (a *acc) add(name string, v float64) {
	a.sum[name] += v
	a.n[name]++
}

func (a *acc) keepMax(name string, v float64) {
	if p, ok := a.peak[name]; !ok || v > p {
		a.peak[name] = v
	}
}

// into writes the means and maxima into layers, leaving names already
// set alone.
func (a *acc) into(layers map[string]float64) {
	for k, s := range a.sum {
		if _, set := layers[k]; !set {
			layers[k] = s / float64(a.n[k])
		}
	}
	for k, v := range a.peak {
		if _, set := layers[k]; !set {
			layers[k] = v
		}
	}
}

// merge adds every figure of b to a.
func (a *acc) merge(b *acc) {
	for k, s := range b.sum {
		a.sum[k] += s
		a.n[k] += b.n[k]
	}
	for k, v := range b.peak {
		a.keepMax(k, v)
	}
}

// stepLayers are the per-tick figures of the layers one Engine.Step
// runs: the policy's decision, timed inside Step, and the replayed
// scheduler, power, thermal, metrics, and wear-tracker calls.
var stepLayers = []string{
	"policy.tick_ns_per_tick",
	"sched.advance_ns_per_tick",
	"power.compute_ns_per_tick",
	"power.energy_ns_per_tick",
	"thermal.step_ns_per_tick",
	"thermal.readback_ns_per_tick",
	"metrics.record_ns_per_tick",
	"reliability.observe_ns_per_tick",
}

// layerSlack is how far the summed layer costs of a probe may exceed its
// measured Step time per tick before the run warns. The replays run
// right after the Step loop, but a probe of a short job lasts only
// milliseconds, and the speed of a shared host can move by tens of
// percent at that scale.
const layerSlack = 1.5

// layerSum returns the summed per-tick cost of the layers one Step runs,
// from one probe's figures: every stepLayers figure, plus the per-job
// dispatch costs (policy.AssignCore and sched.Enqueue) spread over the
// ticks at jobsPerTick.
func layerSum(fig map[string]float64, jobsPerTick float64) float64 {
	var sum float64
	for _, name := range stepLayers {
		sum += fig[name]
	}
	return sum + jobsPerTick*(fig["policy.assign_ns_per_job"]+fig["sched.enqueue_ns_per_job"])
}

// checkLayerBudget fails when one probe's layer costs per tick add up
// to more than its measured Step time per tick, times layerSlack. Each
// layer runs once inside every Step, so a larger sum means a layer's
// replay is mis-timed or replays work the engine does not do. It judges
// timings, not the program's outputs, so a failure is a warning on
// standard error and never counts against the run's correctness.
func checkLayerBudget(fig map[string]float64, jobsPerTick, stepNSPerTick float64) error {
	if sum := layerSum(fig, jobsPerTick); sum > stepNSPerTick*layerSlack {
		return fmt.Errorf("layer costs sum to %.0f ns/tick, over %.2f x the %.0f ns/tick Step", sum, layerSlack, stepNSPerTick)
	}
	return nil
}

// maxReplayTicks bounds how many captured ticks each layer replay
// re-executes; the figures are per tick, so a prefix suffices.
const maxReplayTicks = 1500

// probeJob runs one job through the public stepping API with a timing
// policy wrapper and a capturing observer, checks that the record
// equals want (the record the workload itself produced for the job),
// and then replays the captured per-tick inputs through each layer's
// public functions to time them one by one. The replayed layer costs
// over the measured Step time is bench.layer_budget_ratio, and a probe
// over layerSlack warns (checkLayerBudget). panelWidth is the lane
// count of the workload's batched thermal solves.
func probeJob(tr *tracer, a *acc, c *checks, j sweep.Job, want *sweep.Record, panelWidth int) error {
	gid := "probe:" + j.Key()
	traces := workload.NewTraceCache()
	if _, err := exp.JobConfig(traces, j); err != nil { // warm the trace cache
		return err
	}
	pa := newAcc() // this probe's figures, merged into a once checked

	root := tr.begin("probe.job", gid, -1)
	s := tr.begin("exp.job_config", gid, root)
	t := time.Now()
	cfg, err := exp.JobConfig(traces, j)
	pa.add("exp.job_config_us", durUS(time.Since(t)))
	tr.end(s)
	if err != nil {
		return err
	}
	st := &policyStats{log: true}
	cfg.Policy = wrapPolicy(cfg.Policy, st)
	capt := &tempCapture{}
	cfg.Observer = capt

	s = tr.begin("sim.new_engine", gid, root)
	t = time.Now()
	eng, err := sim.NewEngine(cfg)
	pa.add("sim.new_engine_us", durUS(time.Since(t)))
	tr.end(s)
	if err != nil {
		return err
	}
	var (
		states   []sim.TickState
		ts       sim.TickState
		stepDur  time.Duration
		loopFrom = time.Now()
	)
	for {
		t = time.Now()
		err := eng.Step()
		stepDur += time.Since(t)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		eng.TickStateInto(&ts)
		states = append(states, cloneTickState(ts))
	}
	stepID := tr.record("sim.step", gid, root, loopFrom, stepDur)
	tr.record("policy", gid, stepID, loopFrom, st.tick+st.assign)
	s = tr.begin("sim.finish", gid, root)
	t = time.Now()
	res, err := eng.Finish()
	pa.add("sim.finish_us", durUS(time.Since(t)))
	tr.end(s)
	if err != nil {
		return err
	}
	tr.end(root)

	ticks := len(states)
	if ticks == 0 {
		return fmt.Errorf("probe %s: no ticks", j.Key())
	}
	pa.add("sim.step_self_ns_per_tick", float64(stepDur-st.tick-st.assign)/float64(ticks))
	pa.add("policy.tick_ns_per_tick", float64(st.tick)/float64(ticks))
	pa.add("policy.tick_share", float64(st.tick+st.assign)/float64(stepDur))
	if st.assigns > 0 {
		pa.add("policy.assign_ns_per_job", float64(st.assign)/float64(st.assigns))
	}
	if strings.HasPrefix(j.Policy, "MPC_") {
		pa.add("policy.mpc_tick_ns_per_tick", float64(st.tick)/float64(ticks))
	}
	if want != nil {
		got := sweep.NewRecord(j, res, 0)
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(want)
		c.ok(string(gb) == string(wb), "probe of %s: stepped record differs from the workload's record", j.Key())
	}

	in := replayInput{stack: eng.Stack(), states: states[:min(ticks, maxReplayTicks)], assignments: st.assignments, capt: capt}
	// The first pass warms caches and the allocator; the second is timed.
	for _, dst := range []*acc{newAcc(), pa} {
		if err := replayLayers(dst, in, j, panelWidth); err != nil {
			return err
		}
	}
	fig := make(map[string]float64)
	pa.into(fig)
	jobsPerTick, stepNS := float64(st.assigns)/float64(ticks), float64(stepDur)/float64(ticks)
	pa.keepMax("bench.layer_budget_ratio", layerSum(fig, jobsPerTick)/stepNS)
	if err := checkLayerBudget(fig, jobsPerTick, stepNS); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: warning: probe of %s: %v\n", j.Key(), err)
	}
	a.merge(pa)
	return nil
}

// replayLayers times every layer of one Step on the probe's captured
// inputs, in the order the engine calls them.
func replayLayers(a *acc, in replayInput, j sweep.Job, panelWidth int) error {
	if err := replayWorkload(a, j, in.stack.NumCores()); err != nil {
		return err
	}
	mem, err := replaySched(a, in)
	if err != nil {
		return err
	}
	blockPower, err := replayPower(a, in, mem)
	if err != nil {
		return err
	}
	if err := replayThermal(a, in, j.Scenario, blockPower, panelWidth); err != nil {
		return err
	}
	return replayMetrics(a, in, j.Reliability)
}

func cloneTickState(s sim.TickState) sim.TickState {
	return sim.TickState{
		TimeS:     s.TimeS,
		PowerW:    s.PowerW,
		Levels:    append([]power.VfLevel(nil), s.Levels...),
		Gated:     append([]bool(nil), s.Gated...),
		Sleeping:  append([]bool(nil), s.Sleeping...),
		QueueLens: append([]int(nil), s.QueueLens...),
		Utils:     append([]float64(nil), s.Utils...),
	}
}

// replayInput is what a probe captured from its run.
type replayInput struct {
	stack       *floorplan.Stack
	states      []sim.TickState // per tick, after the step
	assignments []assignment
	capt        *tempCapture
}

func (in replayInput) blockTemps(t int) []float64 {
	nb := in.stack.NumBlocks()
	return in.capt.block[t*nb : (t+1)*nb]
}

func (in replayInput) coreTemps(t int) []float64 {
	n := in.stack.NumCores()
	return in.capt.core[t*n : (t+1)*n]
}

// replayWorkload times regenerating the job's arrival trace.
func replayWorkload(a *acc, j sweep.Job, numCores int) error {
	b, err := workload.ByName(j.Bench)
	if err != nil {
		return err
	}
	t := time.Now()
	_, err = workload.Generate(workload.GenConfig{Bench: b, NumCores: numCores, DurationS: j.DurationS, Seed: j.Seed + int64(b.ID)})
	a.add("workload.generate_ms", durMS(time.Since(t)))
	return err
}

// replaySched re-dispatches the logged assignments onto a fresh machine
// and advances it at the captured per-tick speeds (migrations are not
// replayed). It returns the per-tick memory activity for the power
// replay.
func replaySched(a *acc, in replayInput) ([][]float64, error) {
	n := in.stack.NumCores()
	m, err := sched.NewMachine(n, 0.001)
	if err != nil {
		return nil, err
	}
	dvfs := power.DefaultDVFS()
	cores := in.stack.Cores()
	speeds := make([]float64, n)
	utils := make([]float64, n)
	lens := make([]int, n)
	mem := make([][]float64, len(in.states))
	var enq, adv time.Duration
	enqueued, next := 0, 0
	for tick, s := range in.states {
		for ; next < len(in.assignments) && in.assignments[next].tick == tick; next++ {
			as := in.assignments[next]
			t := time.Now()
			err := m.Enqueue(as.job, as.core)
			enq += time.Since(t)
			if err != nil {
				return nil, err
			}
			enqueued++
		}
		for c := range speeds {
			speeds[c] = 0
			if !s.Gated[c] && !s.Sleeping[c] {
				speeds[c] = dvfs.FreqScale(s.Levels[c]) * cores[c].FreqScale
			}
		}
		mem[tick] = make([]float64, n)
		t := time.Now()
		if err := m.AdvanceInto(utils, 0.1, speeds); err != nil {
			return nil, err
		}
		m.QueueLensInto(lens)
		m.MemActivityInto(mem[tick])
		adv += time.Since(t)
	}
	a.add("sched.advance_ns_per_tick", float64(adv)/float64(len(in.states)))
	if enqueued > 0 {
		a.add("sched.enqueue_ns_per_job", float64(enq)/float64(enqueued))
	}
	return mem, nil
}

// replayPower recomputes the leakage-aware block power of every tick
// from the captured core states and the previous tick's temperatures,
// and meters its energy.
func replayPower(a *acc, in replayInput, mem [][]float64) ([][]float64, error) {
	model := power.DefaultModel()
	n := in.stack.NumCores()
	coreIn := make([]power.CoreInput, n)
	out := make([][]float64, len(in.states))
	meter := power.NewEnergyMeter()
	ambient := thermal.DefaultParams().AmbientC
	var comp, energy time.Duration
	for tick, s := range in.states {
		for c := range coreIn {
			st := power.StateIdle
			switch {
			case s.Sleeping[c]:
				st = power.StateSleep
			case s.Gated[c]:
				st = power.StateGated
			case s.QueueLens[c] > 0 || s.Utils[c] > 0:
				st = power.StateActive
			}
			coreIn[c] = power.CoreInput{State: st, Level: s.Levels[c], Util: s.Utils[c], MemActivity: mem[tick][c]}
		}
		prev := in.blockTemps(max(tick-1, 0))
		out[tick] = make([]float64, in.stack.NumBlocks())
		t := time.Now()
		if err := model.ComputeInto(out[tick], in.stack, power.ChipInput{Cores: coreIn, BlockTempsC: prev, AmbientC: ambient}); err != nil {
			return nil, err
		}
		comp += time.Since(t)
		t = time.Now()
		if err := meter.Accumulate(in.stack, out[tick], 0.1); err != nil {
			return nil, err
		}
		energy += time.Since(t)
	}
	a.add("power.compute_ns_per_tick", float64(comp)/float64(len(in.states)))
	a.add("power.energy_ns_per_tick", float64(energy)/float64(len(in.states)))
	return out, nil
}

// replayThermal steps the job's thermal model through the replayed
// power: the single-lane step, the batched panel step at the workload's
// lane count, the temperature readback, and one private factorization.
func replayThermal(a *acc, in replayInput, sc sweep.Scenario, blockPower [][]float64, width int) error {
	p := thermal.DefaultParams()
	var (
		model *thermal.Model
		err   error
	)
	if sc.GridRows > 0 && sc.GridCols > 0 {
		model, err = thermal.NewGridModel(in.stack, p, sc.GridRows, sc.GridCols)
	} else {
		model, err = thermal.NewBlockModel(in.stack, p)
	}
	if err != nil {
		return err
	}
	init, err := model.SteadyStateWith(blockPower[0], thermal.SolverCached)
	if err != nil {
		return err
	}
	t := time.Now()
	if _, err := model.NewTransientWith(0.1, init, thermal.SolverSparse); err != nil {
		return err
	}
	a.add("thermal.factor_ms", durMS(time.Since(t)))

	tr, err := model.NewTransientWith(0.1, init, thermal.SolverCached)
	if err != nil {
		return err
	}
	sensors, err := thermal.NewSensors(thermal.SensorConfig{})
	if err != nil {
		return err
	}
	n := in.stack.NumCores()
	node := append([]float64(nil), init...)
	blocks := make([]float64, in.stack.NumBlocks())
	cores := make([]float64, n)
	readings := make([]float64, n)
	var step, read time.Duration
	for _, bp := range blockPower {
		t = time.Now()
		if err := tr.StepInto(node, bp); err != nil {
			return err
		}
		step += time.Since(t)
		t = time.Now()
		if err := model.BlockTempsInto(blocks, node); err != nil {
			return err
		}
		if err := model.CoreTempsInto(cores, node); err != nil {
			return err
		}
		sensors.ReadInto(readings, cores)
		read += time.Since(t)
	}
	ticks := float64(len(blockPower))
	a.add("thermal.step_ns_per_tick", float64(step)/ticks)
	a.add("thermal.readback_ns_per_tick", float64(read)/ticks)

	width = max(width, 1)
	lanes := make([]*thermal.Transient, width)
	dsts := make([][]float64, width)
	powers := make([][]float64, width)
	for i := range lanes {
		if lanes[i], err = model.NewTransientWith(0.1, init, thermal.SolverCached); err != nil {
			return err
		}
		dsts[i] = append([]float64(nil), init...)
	}
	batch, err := thermal.NewTransientBatch(lanes)
	if err != nil {
		return err
	}
	var panel time.Duration
	for _, bp := range blockPower {
		for i := range powers {
			powers[i] = bp
		}
		t = time.Now()
		if err := batch.StepInto(dsts, powers); err != nil {
			return err
		}
		panel += time.Since(t)
	}
	a.add("thermal.panel_ns_per_lane_tick", float64(panel)/(ticks*float64(width)))
	return nil
}

// replayMetrics feeds the captured temperatures through the metrics
// collector and, for jobs that track lifetime, the wear tracker.
func replayMetrics(a *acc, in replayInput, lifetime bool) error {
	col, err := metrics.NewCollector(in.stack, metrics.CollectorConfig{HotSpotC: 85, CycleWindow: 100})
	if err != nil {
		return err
	}
	trk, err := reliability.NewTracker(in.stack.NumBlocks(), 0.1)
	if err != nil {
		return err
	}
	var rec, obs time.Duration
	for tick := range in.states {
		b, c := in.blockTemps(tick), in.coreTemps(tick)
		t := time.Now()
		if err := col.Record(b, c); err != nil {
			return err
		}
		rec += time.Since(t)
		if lifetime {
			t = time.Now()
			if err := trk.Observe(b); err != nil {
				return err
			}
			obs += time.Since(t)
		}
	}
	ticks := float64(len(in.states))
	a.add("metrics.record_ns_per_tick", float64(rec)/ticks)
	if lifetime {
		a.add("reliability.observe_ns_per_tick", float64(obs)/ticks)
	}
	return nil
}
