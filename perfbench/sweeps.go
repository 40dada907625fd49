package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/floorplan"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// fig3Spec is the paper's headline experiment at full roster: every
// policy on EXP-1 and EXP-3 under Web-med and Web&DB, no DPM, no
// reliability, long enough that per-job set-up is a few percent.
func fig3Spec(seed int64) sweep.Spec {
	rng := newRand(seed, "fig3-sweep")
	return sweep.Spec{
		Scenarios:  sweep.ScenariosFor([]floorplan.Experiment{floorplan.EXP1, floorplan.EXP3}),
		Policies:   exp.PolicyOrder,
		Benchmarks: []string{"Web-med", "Web&DB"},
		Seed:       simSeed(rng),
		Solvers:    []thermal.SolverKind{thermal.SolverCached},
		DurationsS: []float64{300},
	}
}

// gridRelSpec is EXP-4 in grid mode with DPM and the lifetime tracker
// on, over a non-MPC roster: thermal solves and wear tracking dominate.
// Its 24 jobs share one factorization, so they run as two lockstep
// chunks (16 + 8) and one worker idles while the other finishes.
func gridRelSpec(seed int64) sweep.Spec {
	rng := newRand(seed, "grid-rel-sweep")
	return sweep.Spec{
		Scenarios:   []sweep.Scenario{{Exp: floorplan.EXP4, GridRows: 16, GridCols: 16}},
		Policies:    []string{"Default", "DVFS_TT", "DVFS_Rel", "Adapt3D"},
		Benchmarks:  []string{"Web-med", "Web&DB", "gcc"},
		Replicates:  2,
		Seed:        simSeed(rng),
		Solvers:     []thermal.SolverKind{thermal.SolverCached},
		DurationsS:  []float64{30},
		UseDPM:      true,
		Reliability: true,
	}
}

func runFig3Sweep(ctx context.Context, o opts) (*result, error) {
	return runSweepWorkload(ctx, o, fig3Spec(o.seed))
}

func runGridRelSweep(ctx context.Context, o opts) (*result, error) {
	return runSweepWorkload(ctx, o, gridRelSpec(o.seed))
}

// sweepRep is one timed execution of the whole sweep.
type sweepRep struct {
	digest  string
	ticks   int64
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	recs    []sweep.Record // canonical order
}

// runSweepWorkload measures repeated in-process executions of one sweep
// spec through the dtmsweep production path: sweep.Execute over
// exp.NewRunners with exp.GroupKey batching and two workers.
func runSweepWorkload(ctx context.Context, o opts, spec sweep.Spec) (*result, error) {
	res := newResult()
	jobs := spec.Expand()
	fmt.Printf("sweep: %d jobs, seed %d\n", len(jobs), spec.Seed)

	// Set-up: stack builds and the factorization prewarm, from a cold
	// factorization cache each time.
	setup, err := medianSetup(5, 400, time.Second, func() error {
		thermal.ResetFactorCache()
		return exp.Prewarm(spec)
	})
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = setup
	res.line("setup_s", setup, "s", "median of repeated prewarms")

	// Warm-up: the first execution is the reference every later one must
	// reproduce byte for byte.
	ref, err := sweepOnce(ctx, jobs, nil)
	if err != nil {
		return nil, err
	}
	checkSweepRecords(&res.checks, jobs, ref)
	res.digest = ref.digest

	budget := o.budget()
	var plain, traced []sweepRep
	if o.trace {
		// A third of the budget untraced, the rest traced: the ratio of
		// their per-tick times is the tracing overhead.
		st := &sweepTrace{tr: newTracer()}
		plain = repeatSweep(ctx, res, jobs, ref.digest, budget/3, nil)
		cacheBefore := factorCacheCounts()
		traced = repeatSweep(ctx, res, jobs, ref.digest, budget-budget/3, st)
		cacheAfter := factorCacheCounts()
		st.report(res.layers)
		res.layers["thermal.factor_cache_hit_ratio"] = hitRatio(cacheBefore, cacheAfter)
		res.layers["exp.prewarm_ms"] = setup * 1000
		res.layers["bench.tracing_overhead_ratio"] = nsPerTick(traced) / nsPerTick(plain)
		a := newAcc()
		for _, i := range probeJobs(jobs) {
			if err := probeJob(st.tr, a, &res.checks, jobs[i], &ref.recs[i], int(res.layers["sweep.lanes_per_unit"]+0.5)); err != nil {
				res.checks.fail("probe %s: %v", jobs[i].Key(), err)
			}
		}
		a.into(res.layers)
		if err := st.tr.write(spanPath(o)); err != nil {
			return nil, err
		}
	} else {
		plain = repeatSweep(ctx, res, jobs, ref.digest, budget, nil)
	}
	reps := plain
	if o.trace {
		reps = traced
	}
	var walls, wallPerTick []float64
	var ticks int64
	var allocs uint64
	for _, r := range reps {
		walls = append(walls, durMS(r.wall))
		wallPerTick = append(wallPerTick, float64(r.wall)/float64(r.ticks))
		ticks += r.ticks
		allocs += r.mallocs
	}
	res.e2e["ns_per_tick"] = nsPerTick(reps)
	res.e2e["allocs_per_tick"] = float64(allocs) / float64(ticks)
	res.e2e["op_p50_ms"] = median(walls)
	res.line("ns_per_tick", res.e2e["ns_per_tick"], "ns", fmt.Sprintf("process CPU, median of %d sweeps of %d ticks", len(reps), reps[0].ticks))
	res.line("wall_ns_per_tick", median(wallPerTick), "ns", fmt.Sprintf("range %.0f-%.0f", sortedCopy(wallPerTick)[0], sortedCopy(wallPerTick)[len(reps)-1]))
	res.line("allocs_per_tick", res.e2e["allocs_per_tick"], "count", "")
	res.line("sweep_p50_ms", res.e2e["op_p50_ms"], "ms", "one whole sweep")
	return res, nil
}

// repeatSweep executes the sweep until the budget is spent (at least
// three times), checking each execution against the reference digest.
func repeatSweep(ctx context.Context, res *result, jobs []sweep.Job, want string, budget time.Duration, st *sweepTrace) []sweepRep {
	var reps []sweepRep
	start := time.Now()
	for len(reps) < 3 || time.Since(start) < budget {
		if ctx.Err() != nil {
			break
		}
		rep, err := sweepOnce(ctx, jobs, st)
		if !res.checks.err(err, "sweep") {
			continue
		}
		checkSweepRecords(&res.checks, jobs, rep)
		res.checks.ok(rep.digest == want, "sweep digest %s differs from the reference %s", rep.digest, want)
		reps = append(reps, rep)
	}
	return reps
}

// nsPerTick is the median over executions of process CPU time per tick.
func nsPerTick(reps []sweepRep) float64 {
	var xs []float64
	for _, r := range reps {
		xs = append(xs, float64(r.cpu)/float64(r.ticks))
	}
	return median(xs)
}

// checkSweepRecords counts one operation per job: its record must be
// present and have simulated every tick of its duration.
func checkSweepRecords(c *checks, jobs []sweep.Job, rep sweepRep) {
	for i, j := range jobs {
		if i >= len(rep.recs) {
			c.fail("job %s: no record", j.Key())
			continue
		}
		r := rep.recs[i]
		want := int(j.DurationS/0.1 + 0.5)
		c.ok(r.Key == j.Key() && r.Ticks == want, "job %s: record %s with %d ticks, want %d", j.Key(), r.Key, r.Ticks, want)
	}
}

// sweepOnce runs the sweep once with fresh runners (a new process's
// trace cache) and returns its canonical digest and records.
func sweepOnce(ctx context.Context, jobs []sweep.Job, st *sweepTrace) (sweepRep, error) {
	run, runGroup := exp.NewRunners(exp.RunnerHooks{})
	if st != nil {
		run, runGroup = st.runners()
	}
	h := sha256.New()
	col := &sweep.Collector{}
	var sink sweep.Sink = sweep.NewOrderedSink(sweep.StripElapsed(sweep.MultiSink(sweep.NewJSONLSink(h), col)), jobs)
	if st != nil {
		sink = &timedSink{inner: sink, st: st}
	}
	m0, c0 := mallocs(), cpuTime()
	start := time.Now()
	if st != nil {
		st.beginRep(start)
	}
	n, err := sweep.Execute(ctx, jobs, run, sweep.Options{Workers: sweepWorkers, Group: exp.GroupKey, RunGroup: runGroup}, sink)
	wall := time.Since(start)
	if st != nil {
		st.endRep(wall)
	}
	rep := sweepRep{wall: wall, cpu: cpuTime() - c0, mallocs: mallocs() - m0, recs: col.Records, digest: hex.EncodeToString(h.Sum(nil))}
	if err != nil {
		return rep, err
	}
	if n != len(jobs) {
		return rep, fmt.Errorf("sweep ran %d of %d jobs", n, len(jobs))
	}
	for _, r := range col.Records {
		rep.ticks += int64(r.Ticks)
	}
	return rep, nil
}

// timedSink times every Put of the sweep's sink chain.
type timedSink struct {
	inner sweep.Sink
	st    *sweepTrace
}

func (s *timedSink) Put(r sweep.Record) error {
	t := time.Now()
	err := s.inner.Put(r)
	s.st.mu.Lock()
	s.st.sinkPut += time.Since(t)
	s.st.puts++
	s.st.mu.Unlock()
	return err
}

func (s *timedSink) Close() error { return s.inner.Close() }

// unit is one dispatch of the worker pool: a single job or a lockstep
// group.
type unit struct {
	start, end time.Duration // since the rep started
	lanes      int
}

// sweepTrace holds the traced pass's runners and what they measured.
type sweepTrace struct {
	tr *tracer

	mu        sync.Mutex
	repStart  time.Time
	units     []unit
	nextID    int
	busy      []float64 // per rep: busy time / (wall x workers)
	tailIdle  []float64 // per rep, ms
	nUnits    int
	nJobs     int
	sinkPut   time.Duration
	puts      int
	jobConfig time.Duration
	configs   int
	batch     time.Duration // sim.RunBatchContext time of multi-lane units
	laneTicks int64
	runTime   time.Duration // all simulation calls
	pol, mpc  policyStats
}

func (st *sweepTrace) beginRep(t time.Time) {
	st.mu.Lock()
	st.repStart = t
	st.units = st.units[:0]
	st.mu.Unlock()
}

// endRep folds the rep's dispatch intervals into the pool metrics.
func (st *sweepTrace) endRep(wall time.Duration) {
	st.mu.Lock()
	defer st.mu.Unlock()
	var busy time.Duration
	for _, u := range st.units {
		busy += u.end - u.start
	}
	st.busy = append(st.busy, float64(busy)/(float64(wall)*sweepWorkers))
	st.tailIdle = append(st.tailIdle, durMS(wall-lastFullyBusy(st.units, sweepWorkers)))
}

// lastFullyBusy returns the end of the last interval during which all
// workers were busy: from then on at least one worker idled for good.
// It returns 0 when the pool never filled.
func lastFullyBusy(units []unit, workers int) time.Duration {
	type ev struct {
		t     time.Duration
		delta int
	}
	var evs []ev
	for _, u := range units {
		evs = append(evs, ev{u.start, +1}, ev{u.end, -1})
	}
	// Ends sort before starts at the same instant: a worker handing over
	// to its next unit never counts as two busy slots.
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		return evs[i].delta < evs[j].delta
	})
	var last time.Duration
	busy := 0
	for _, e := range evs {
		if busy >= workers && e.delta < 0 {
			last = e.t
		}
		busy += e.delta
	}
	return last
}

// runners mirrors exp.NewRunners, with every simulation's policy
// wrapped for timing and spans around each layer call.
func (st *sweepTrace) runners() (sweep.RunFunc, sweep.RunGroupFunc) {
	traces := workload.NewTraceCache()
	configure := func(gid string, parent int, j sweep.Job, ps *policyStats) (sim.Config, error) {
		s := st.tr.begin("exp.job_config", gid, parent)
		t := time.Now()
		cfg, err := exp.JobConfig(traces, j)
		d := time.Since(t)
		st.tr.end(s)
		st.mu.Lock()
		st.jobConfig += d
		st.configs++
		st.mu.Unlock()
		cfg.Policy = wrapPolicy(cfg.Policy, ps)
		return cfg, err
	}
	runGroup := func(ctx context.Context, group []sweep.Job) ([]sweep.Record, error) {
		start := time.Now()
		st.mu.Lock()
		gid := fmt.Sprintf("unit%d", st.nextID)
		st.nextID++
		st.mu.Unlock()
		root := st.tr.begin("sweep.unit", gid, -1)
		cfgs := make([]sim.Config, len(group))
		stats := make([]policyStats, len(group))
		for i, j := range group {
			cfg, err := configure(gid, root, j, &stats[i])
			if err != nil {
				return nil, err
			}
			cfgs[i] = cfg
		}
		var (
			results []*sim.Result
			err     error
		)
		name := "sim.run_batch"
		if len(group) == 1 {
			name = "sim.run"
		}
		s := st.tr.begin(name, gid, root)
		t := time.Now()
		if len(group) == 1 {
			var r *sim.Result
			r, err = sim.RunContext(ctx, cfgs[0])
			results = []*sim.Result{r}
		} else {
			results, err = sim.RunBatchContext(ctx, cfgs)
		}
		d := time.Since(t)
		var polTime time.Duration
		for _, ps := range stats {
			polTime += ps.tick + ps.assign
		}
		st.tr.record("policy", gid, s, t, polTime)
		st.tr.end(s)
		if err != nil {
			st.tr.end(root)
			return nil, err
		}
		recs := make([]sweep.Record, len(group))
		var ticks int64
		for i, j := range group {
			recs[i] = sweep.NewRecord(j, results[i], 0)
			ticks += int64(results[i].Ticks)
		}
		st.tr.end(root)
		end := time.Now()

		st.mu.Lock()
		defer st.mu.Unlock()
		st.units = append(st.units, unit{start: start.Sub(st.repStart), end: end.Sub(st.repStart), lanes: len(group)})
		st.nUnits++
		st.nJobs += len(group)
		st.runTime += d
		if len(group) > 1 {
			st.batch += d
			st.laneTicks += ticks
		}
		for i, j := range group {
			dst := &st.pol
			if strings.HasPrefix(j.Policy, "MPC_") {
				dst = &st.mpc
			}
			dst.tick += stats[i].tick
			dst.ticks += stats[i].ticks
			dst.assign += stats[i].assign
			dst.assigns += stats[i].assigns
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

// report writes the traced pass's sweep, sim, and policy figures.
func (st *sweepTrace) report(layers map[string]float64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	layers["sweep.worker_busy_ratio"] = median(st.busy)
	layers["sweep.tail_idle_ms"] = median(st.tailIdle)
	if st.nUnits > 0 {
		layers["sweep.lanes_per_unit"] = float64(st.nJobs) / float64(st.nUnits)
	}
	if st.puts > 0 {
		layers["sweep.sink_put_us"] = durUS(st.sinkPut) / float64(st.puts)
	}
	if st.configs > 0 {
		layers["exp.job_config_us"] = durUS(st.jobConfig) / float64(st.configs)
	}
	if st.laneTicks > 0 {
		layers["sim.batch_ns_per_lane_tick"] = float64(st.batch) / float64(st.laneTicks)
	}
	all := st.pol.ticks + st.mpc.ticks
	if all > 0 {
		layers["policy.tick_ns_per_tick"] = float64(st.pol.tick+st.mpc.tick) / float64(all)
	}
	if st.mpc.ticks > 0 {
		layers["policy.mpc_tick_ns_per_tick"] = float64(st.mpc.tick) / float64(st.mpc.ticks)
	}
	if n := st.pol.assigns + st.mpc.assigns; n > 0 {
		layers["policy.assign_ns_per_job"] = float64(st.pol.assign+st.mpc.assign) / float64(n)
	}
	if st.runTime > 0 {
		layers["policy.tick_share"] = float64(st.pol.tick+st.pol.assign+st.mpc.tick+st.mpc.assign) / float64(st.runTime)
	}
}

// probeJobs picks the jobs whose layers the traced run replays: the
// first job of every policy in the first scenario and benchmark. It
// returns their indices in jobs.
func probeJobs(jobs []sweep.Job) []int {
	seen := map[string]bool{}
	var out []int
	for i, j := range jobs {
		if j.Scenario.ID() != jobs[0].Scenario.ID() || j.Bench != jobs[0].Bench || seen[j.Policy] {
			continue
		}
		seen[j.Policy] = true
		out = append(out, i)
	}
	return out
}

// factorCacheCounts returns the thermal factorization cache's hit and
// miss totals.
func factorCacheCounts() [2]int64 {
	_, hits, misses := thermal.FactorCacheStats()
	return [2]int64{hits, misses}
}

func hitRatio(before, after [2]int64) float64 {
	hits, misses := after[0]-before[0], after[1]-before[1]
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
