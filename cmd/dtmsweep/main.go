// Command dtmsweep regenerates the paper's evaluation: Tables I-II,
// Figure 2 (TSV resistivity), and Figures 3-6 (hot spots without/with
// DPM, spatial gradients, thermal cycles) across every policy and 3D
// configuration, plus the lifetime extension (-figure 7: worst-block
// cycling damage and relative MTTF). It doubles as the streaming sweep
// driver: with -out it expands the configured sweep to a deterministic
// job list, runs it on a worker pool, and streams one record per
// completed run, with optional sharding across machines (-shard), a
// JSONL checkpoint (-checkpoint), and resumption of a killed sweep
// (-resume).
//
// Usage:
//
//	dtmsweep                          # everything (figure mode)
//	dtmsweep -figure 3                # one figure
//	dtmsweep -figure 7                # lifetime report (damage + rel. MTTF)
//	dtmsweep -duration 600            # longer runs
//	dtmsweep -csv                     # machine-readable figure output
//	dtmsweep -replicates 5 -figure 4  # mean±stddev cells
//
//	dtmsweep -out jsonl -checkpoint ck.jsonl          # streaming sweep
//	dtmsweep -out csv -shard 1/4 -checkpoint s1.jsonl # shard 1 of 4
//	dtmsweep -out jsonl -resume ck.jsonl -checkpoint ck.jsonl  # resume
//	dtmsweep -out jsonl -canonical                    # deterministic byte-stable stream
//	dtmsweep -out jsonl -remote http://host:8080      # run on a dtmserved instance
//	dtmsweep -out jsonl -remote http://a:8080,http://b:8080  # route across a dtmserved cluster
//	dtmsweep -out jsonl -reliability                  # records carry rel_* wear fields
//	dtmsweep -out jsonl -reliability -stress          # + degraded-TSV stress scenario
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/exp"
	"repro/internal/floorplan"
	"repro/internal/report"
	"repro/internal/sweep"
	"repro/internal/thermal"
	scenlib "repro/scenarios"
)

// stopProfiles flushes any active CPU/heap profiles; idempotent. It is
// a package variable so fatal can run it before os.Exit.
var stopProfiles = func() {}

// fatal is log.Fatal with profiler teardown first.
func fatal(v ...any) {
	stopProfiles()
	log.Fatal(v...)
}

// fatalf is log.Fatalf with profiler teardown first.
func fatalf(format string, v ...any) {
	stopProfiles()
	log.Fatalf(format, v...)
}

// startProfiles begins CPU profiling and returns an idempotent teardown
// that stops it and writes the heap profile.
func startProfiles(cpuPath, memPath string) func() {
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			if cpuPath != "" {
				pprof.StopCPUProfile()
			}
			if memPath == "" {
				return
			}
			f, err := os.Create(memPath)
			if err != nil {
				log.Print(err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Print(err)
			}
		})
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("dtmsweep: ")

	figFlag := flag.Int("figure", 0, "figure to regenerate (2..6, or 7 for the lifetime report; 0 = all paper figures including Tables I-II)")
	durFlag := flag.Float64("duration", 300, "simulated seconds per run")
	seedFlag := flag.Int64("seed", 1, "random seed")
	csvFlag := flag.Bool("csv", false, "emit CSV instead of aligned tables (figure mode)")
	benchFlag := flag.String("benchmarks", "", "comma-separated Table I benchmark names (default: representative mix)")
	solverFlag := flag.String("solver", "cached", "solver label(s) for job keys and records: cached, sparse, or dense; every run solves on the shared sparse factorization; sweep mode accepts a comma-separated list")
	statsFlag := flag.Bool("solverstats", false, "print shared thermal model cache statistics after the sweep")
	repFlag := flag.Int("replicates", 1, "independent seeds per cell; >1 reports mean±stddev")

	outFlag := flag.String("out", "", "switch to streaming sweep mode and write per-run records to stdout as csv or jsonl")
	remoteFlag := flag.String("remote", "", "run the sweep on dtmserved instance(s) instead of locally: one base URL (e.g. http://host:8080), or a comma-separated cluster list routed by rendezvous-hashed job key (sweep mode)")
	canonFlag := flag.Bool("canonical", false, "emit records in canonical job order with elapsed_ms stripped, byte-identical across runs and to a dtmserved stream (sweep mode)")
	shardFlag := flag.String("shard", "", "run only shard i of n ('i/n', 0-based) of the sweep's job list (sweep mode)")
	resumeFlag := flag.String("resume", "", "JSONL checkpoint of a previous invocation; completed jobs are skipped (sweep mode)")
	ckFlag := flag.String("checkpoint", "", "append every completed run to this JSONL file (sweep mode)")
	expsFlag := flag.String("exps", "", "comma-separated stack configurations 1..6 (default: the paper's 1,2,3,4; 5-6 are the extended scenario space)")
	stackFlag := flag.String("stack", "", "comma-separated declarative stacks to sweep: StackSpec JSON files or library names ("+strings.Join(scenlib.Names(), ", ")+"); with no -exps they replace the builtin default (sweep mode)")
	policiesFlag := flag.String("policies", "", "comma-separated policy names (default: full roster)")
	dpmFlag := flag.Bool("dpm", false, "compose the fixed-timeout power manager into every run (sweep mode)")
	durationsFlag := flag.String("durations", "", "comma-separated simulated durations in seconds (sweep mode; default: -duration)")
	gridFlag := flag.String("grid", "", "'RxC': additionally sweep every stack in grid thermal mode with R x C cells per layer (sweep mode)")
	relFlag := flag.Bool("reliability", false, "attach the streaming lifetime tracker to every run: sweep records carry the rel_* wear fields; figure 7 implies it")
	stressFlag := flag.Bool("stress", false, "add the degraded-TSV stress scenario (doubled joint resistivity) to the sweep (sweep mode)")
	workersFlag := flag.Int("workers", 0, "worker pool size (0: one per CPU)")
	cpuProfFlag := flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file (inspect with go tool pprof)")
	memProfFlag := flag.String("memprofile", "", "write a heap profile at exit to this file (inspect with go tool pprof)")
	flag.Parse()

	// Profiling hooks for the hot-path work: the tick pipeline is
	// allocation-free in steady state, so a heap profile of a sweep
	// should be dominated by per-run setup (factorizations, traces) —
	// anything per-tick showing up here is a regression worth chasing.
	// Every exit path below goes through fatal(), which flushes the
	// profiles first: log.Fatal's os.Exit would skip the defer and
	// leave a truncated CPU profile exactly when a failed long sweep
	// most needs inspecting.
	stopProfiles = startProfiles(*cpuProfFlag, *memProfFlag)
	defer stopProfiles()

	if *statsFlag {
		defer func() {
			entries, hits, misses := thermal.FactorCacheStats()
			fmt.Fprintf(os.Stderr, "thermal model cache: %d models, %d hits, %d built\n", entries, hits, misses)
		}()
	}

	if *outFlag != "" {
		if err := sweepMode(sweepFlags{
			out:         *outFlag,
			remote:      *remoteFlag,
			canonical:   *canonFlag,
			shard:       *shardFlag,
			resume:      *resumeFlag,
			checkpoint:  *ckFlag,
			exps:        *expsFlag,
			stacks:      *stackFlag,
			policies:    *policiesFlag,
			benchmarks:  *benchFlag,
			solvers:     *solverFlag,
			durations:   *durationsFlag,
			grid:        *gridFlag,
			duration:    *durFlag,
			seed:        *seedFlag,
			replicates:  *repFlag,
			dpm:         *dpmFlag,
			reliability: *relFlag,
			stress:      *stressFlag,
			workers:     *workersFlag,
		}); err != nil {
			fatal(err)
		}
		return
	}

	// Figure mode records no solver label, but still rejects a bad one.
	if _, err := thermal.ParseSolverKind(*solverFlag); err != nil {
		fatal(err)
	}
	f := exp.FigureConfig{DurationS: *durFlag, Seed: *seedFlag, Replicates: *repFlag}
	if *benchFlag != "" {
		f.Benchmarks = strings.Split(*benchFlag, ",")
	}
	w := os.Stdout

	render := func(t *report.Table) {
		var err error
		if *csvFlag {
			err = t.RenderCSV(w)
		} else {
			err = t.Render(w)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(w)
	}

	switch *figFlag {
	case 0:
		if *csvFlag {
			fatal("-csv requires selecting a single figure")
		}
		if _, _, err := exp.WriteAllFigures(w, f); err != nil {
			fatal(err)
		}
	case 2:
		render(exp.Fig2Report())
	case 3:
		hs, perf, _, err := exp.Fig3Report(f)
		if err != nil {
			fatal(err)
		}
		render(hs)
		render(perf)
	case 4:
		t, _, err := exp.Fig4Report(f)
		if err != nil {
			fatal(err)
		}
		render(t)
	case 5:
		t, _, err := exp.Fig5Report(f)
		if err != nil {
			fatal(err)
		}
		render(t)
	case 6:
		t, _, err := exp.Fig6Report(f)
		if err != nil {
			fatal(err)
		}
		render(t)
	case 7:
		damage, mttf, _, err := exp.ReliabilityReport(f)
		if err != nil {
			fatal(err)
		}
		render(damage)
		render(mttf)
	default:
		fatalf("unknown figure %d (want 2..7 or 0 for all paper figures)", *figFlag)
	}
}

type sweepFlags struct {
	out, shard, resume, checkpoint string
	remote                         string
	exps, stacks                   string
	policies, benchmarks           string
	solvers, durations, grid       string
	duration                       float64
	seed                           int64
	replicates, workers            int
	dpm, canonical                 bool
	reliability, stress            bool
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// buildSpec translates the CLI flags into the declarative sweep spec.
func buildSpec(f sweepFlags) (sweep.Spec, error) {
	var zero sweep.Spec
	exps := floorplan.AllExperiments()
	switch {
	case f.exps != "":
		exps = exps[:0]
		for _, tok := range splitList(f.exps) {
			e, err := floorplan.ParseExperiment(tok)
			if err != nil {
				return zero, err
			}
			exps = append(exps, e)
		}
	case f.stacks != "":
		// Declarative stacks replace the builtin default roster; mixing
		// is explicit (-exps and -stack together).
		exps = nil
	}
	scenarios := sweep.ScenariosFor(exps)
	for _, tok := range splitList(f.stacks) {
		spec, err := scenlib.Load(tok)
		if err != nil {
			return zero, err
		}
		// Inline the spec rather than referencing it by name, so a
		// -remote server streams the identical sweep without having the
		// file (or the library version) on its side.
		scenarios = append(scenarios, sweep.Scenario{Stack: &sweep.StackRef{Spec: &spec}})
	}
	if f.grid != "" {
		r, c, ok := strings.Cut(f.grid, "x")
		rows, err1 := strconv.Atoi(strings.TrimSpace(r))
		var cols int
		var err2 error
		if ok {
			cols, err2 = strconv.Atoi(strings.TrimSpace(c))
		}
		if !ok || err1 != nil || err2 != nil || rows <= 0 || cols <= 0 {
			return zero, fmt.Errorf("bad -grid %q (want RxC, e.g. 16x16)", f.grid)
		}
		base := scenarios
		for _, sc := range base {
			sc.GridRows, sc.GridCols = rows, cols
			scenarios = append(scenarios, sc)
		}
	}
	if f.stress {
		scenarios = append(scenarios, exp.StressScenarios()...)
	}

	policies := append([]string{}, exp.PolicyOrder...)
	if f.policies != "" {
		policies = splitList(f.policies)
	}
	benches := exp.DefaultBenchmarks()
	if f.benchmarks != "" {
		benches = splitList(f.benchmarks)
	}

	var solvers []thermal.SolverKind
	for _, tok := range splitList(f.solvers) {
		k, err := thermal.ParseSolverKind(tok)
		if err != nil {
			return zero, err
		}
		solvers = append(solvers, k)
	}

	durations := []float64{f.duration}
	if f.durations != "" {
		durations = durations[:0]
		for _, tok := range splitList(f.durations) {
			d, err := strconv.ParseFloat(tok, 64)
			if err != nil || d <= 0 {
				return zero, fmt.Errorf("bad -durations entry %q", tok)
			}
			durations = append(durations, d)
		}
	}

	return sweep.Spec{
		Scenarios:   scenarios,
		Policies:    policies,
		Benchmarks:  benches,
		Replicates:  f.replicates,
		Seed:        f.seed,
		Solvers:     solvers,
		DurationsS:  durations,
		UseDPM:      f.dpm,
		Reliability: f.reliability,
	}, nil
}

// sweepMode builds the sweep request — spec, shard, and the resumed
// checkpoint's completed keys — and executes its job list, streaming
// records to stdout and the checkpoint file. SIGINT cancels cleanly:
// in-flight runs stop at their next simulated tick and everything
// already completed is in the checkpoint. With -remote the request
// runs on dtmserved instance(s) instead of locally; locally it runs
// req.Jobs(), the list a server streams for the same request, so the
// sinks, checkpoint, and resume semantics are the same either way.
func sweepMode(f sweepFlags) error {
	spec, err := buildSpec(f)
	if err != nil {
		return err
	}
	req := client.Request{Spec: spec}
	if f.shard != "" {
		idxS, cntS, ok := strings.Cut(f.shard, "/")
		idx, err1 := strconv.Atoi(idxS)
		cnt, err2 := strconv.Atoi(cntS)
		if !ok || err1 != nil || err2 != nil || cnt <= 0 {
			return fmt.Errorf("bad -shard %q (want i/n with n > 0, e.g. 0/4)", f.shard)
		}
		req.ShardIndex, req.ShardCount = idx, cnt
	}
	shard, err := req.Jobs()
	if err != nil {
		return err
	}
	if f.resume != "" {
		recs, err := sweep.LoadCheckpointFile(f.resume)
		if err != nil {
			return err
		}
		req = req.WithSkip(sweep.CompletedKeys(recs))
		fmt.Fprintf(os.Stderr, "dtmsweep: resuming: %d completed runs in %s\n", len(req.SkipKeys), f.resume)
	}
	jobs, err := req.Jobs()
	if err != nil {
		return err
	}

	var out sweep.Sink
	switch f.out {
	case "jsonl":
		out = sweep.NewJSONLSink(os.Stdout)
	case "csv":
		out = sweep.NewCSVSink(os.Stdout)
	default:
		return fmt.Errorf("bad -out %q (want csv or jsonl)", f.out)
	}
	if f.canonical && f.remote == "" {
		// Canonical mode: records reach stdout in expansion order with
		// the wall-clock field stripped, so the stream is a pure
		// function of the spec — byte-identical across runs and to what
		// dtmserved streams for the same request. The checkpoint sink
		// below stays completion-ordered: it is a durability surface,
		// and buffering it would lose finished runs on a crash.
		out = sweep.NewOrderedSink(sweep.StripElapsed(out), jobs)
	}
	// The checkpoint sink goes FIRST: records are delivered to sinks in
	// order and delivery stops at the first failure, so checkpoint-first
	// guarantees every record that reached stdout (and any consumer
	// downstream of it) is also durable — a resumed run can then never
	// re-emit a record the consumer already saw.
	var sinks []sweep.Sink
	if f.checkpoint != "" {
		ck, err := os.OpenFile(f.checkpoint, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer ck.Close()
		sinks = append(sinks, sweep.NewJSONLSink(ck))
	}
	sinks = append(sinks, out)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if f.remote != "" {
		st, cleanup, err := newStreamer(f.remote)
		if err != nil {
			return err
		}
		defer cleanup()
		start := time.Now()
		fmt.Fprintf(os.Stderr, "dtmsweep: %d jobs in sweep, %d in this shard, %d to run on %s\n",
			spec.NumJobs(), len(shard), len(jobs), f.remote)
		n, err := remoteSweep(ctx, st, req, sinks...)
		fmt.Fprintf(os.Stderr, "dtmsweep: %d records from %s in %.1fs\n", n, f.remote, time.Since(start).Seconds())
		return err
	}

	// Prewarm only the scenarios this invocation will actually run.
	pending := spec
	pending.Scenarios = nil
	seen := map[string]bool{}
	for _, j := range jobs {
		if seen[j.Scenario.ID()] {
			continue
		}
		seen[j.Scenario.ID()] = true
		pending.Scenarios = append(pending.Scenarios, j.Scenario)
	}
	if err := exp.Prewarm(pending); err != nil {
		return err
	}

	start := time.Now()
	fmt.Fprintf(os.Stderr, "dtmsweep: %d jobs in sweep, %d in this shard, %d to run\n",
		spec.NumJobs(), len(shard), len(jobs))
	// Batch same-system jobs through one panel solve per tick; record
	// contents and job keys are identical to the per-job path, so
	// checkpoints and canonical streams are unaffected.
	run, runGroup := exp.NewRunners(exp.RunnerHooks{})
	opts := sweep.Options{Workers: f.workers, Group: exp.GroupKey, RunGroup: runGroup}
	n, err := sweep.Execute(ctx, jobs, run, opts, sinks...)
	fmt.Fprintf(os.Stderr, "dtmsweep: %d runs in %.1fs\n", n, time.Since(start).Seconds())
	return err
}
