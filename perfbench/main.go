// Command perfbench is the repository benchmark: it runs one named
// workload of the DTM simulator or its serving stack, checks the
// outputs, and prints every metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// carrying the end-to-end metrics (untraced run) or the per-layer
// metrics (-trace 1). See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// e2eMetrics are the end-to-end metrics every workload reports from its
// untraced run. Each is defined on all four workloads and never 0.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"ns_per_tick", "ns"},
	{"allocs_per_tick", "count"},
	{"max_rss_mb", "MB"},
	{"op_p50_ms", "ms"},
}

// layerMetrics are the per-layer metrics of the traced run. A layer a
// workload does not exercise reports 0.
var layerMetrics = []metricDef{
	{"sweep.worker_busy_ratio", "ratio"},
	{"sweep.tail_idle_ms", "ms"},
	{"sweep.lanes_per_unit", "count"},
	{"sweep.sink_put_us", "us"},
	{"exp.job_config_us", "us"},
	{"exp.prewarm_ms", "ms"},
	{"sim.new_engine_us", "us"},
	{"sim.finish_us", "us"},
	{"sim.step_self_ns_per_tick", "ns"},
	{"sim.batch_ns_per_lane_tick", "ns"},
	{"policy.tick_ns_per_tick", "ns"},
	{"policy.mpc_tick_ns_per_tick", "ns"},
	{"policy.assign_ns_per_job", "ns"},
	{"policy.tick_share", "ratio"},
	{"sched.advance_ns_per_tick", "ns"},
	{"sched.enqueue_ns_per_job", "ns"},
	{"power.compute_ns_per_tick", "ns"},
	{"power.energy_ns_per_tick", "ns"},
	{"thermal.step_ns_per_tick", "ns"},
	{"thermal.panel_ns_per_lane_tick", "ns"},
	{"thermal.readback_ns_per_tick", "ns"},
	{"thermal.factor_ms", "ms"},
	{"thermal.factor_cache_hit_ratio", "ratio"},
	{"metrics.record_ns_per_tick", "ns"},
	{"reliability.observe_ns_per_tick", "ns"},
	{"workload.generate_ms", "ms"},
	{"floorplan.spec_build_us", "us"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.inflight_joins", "count"},
	{"server.sim_ticks", "count"},
	{"server.queue_depth_max", "count"},
	{"server.peer_fills", "count"},
	{"server.backend_retries", "count"},
	{"client.decode_us_per_record", "us"},
	{"client.retries", "count"},
	{"cluster.partition_skew", "ratio"},
	{"cluster.rerouted", "count"},
	{"cluster.retries", "count"},
	{"session.open_ms", "ms"},
	{"session.frame_us", "us"},
	{"session.bytes_per_frame", "bytes"},
	{"session.replay_ms", "ms"},
	{"session.seek_ms", "ms"},
	{"session.engines_live_after", "count"},
	{"served.warm_p50_ms", "ms"},
	{"served.warm_p99_ms", "ms"},
	{"served.cold_p50_ms", "ms"},
	{"served.cold_p95_ms", "ms"},
	{"served.ttfb_p99_ms", "ms"},
	{"served.max_ok_rps", "1/s"},
	{"session.frame_gap_p99_ms", "ms"},
	{"session.event_ack_p99_ms", "ms"},
	{"session.replay_ns_per_tick", "ns"},
	{"bench.fail_ratio", "ratio"},
	{"bench.gen_lag_p99_ms", "ms"},
	{"bench.tracing_overhead_ratio", "ratio"},
	{"bench.layer_budget_ratio", "ratio"},
}

// Load limits: the benchmark host has two cores, so sweeps run two
// workers, each served node one, and the generator holds at most two
// connections at once.
const (
	sweepWorkers = 2
	maxConns     = 2
)

// opts are one run's arguments.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory for the span dump
}

func (o opts) budget() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// checks counts the operations a run attempted and how many failed.
// Safe for concurrent use.
type checks struct {
	mu        sync.Mutex
	attempted int
	failed    int
	msgs      []string
}

// ok counts one operation, failed unless cond holds.
func (c *checks) ok(cond bool, format string, args ...any) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if !cond {
		c.failed++
		if len(c.msgs) < 20 {
			c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
		}
	}
	return cond
}

// fail counts one failed operation.
func (c *checks) fail(format string, args ...any) { c.ok(false, format, args...) }

// err counts one operation that failed when err is non-nil.
func (c *checks) err(err error, what string) bool {
	if err != nil {
		return c.ok(false, "%s: %v", what, err)
	}
	return c.ok(true, "")
}

// reportLine is one human-readable metric line.
type reportLine struct {
	name  string
	value float64
	unit  string
	note  string
}

// result is everything one run measured.
type result struct {
	checks checks
	e2e    map[string]float64
	layers map[string]float64
	// report lists every figure of the workload by name, including the
	// service metrics that are not end-to-end metrics (warm_p99_ms,
	// frame_gap_p99_ms, ...), printed as text.
	report []reportLine
	digest string
}

func newResult() *result {
	return &result{e2e: make(map[string]float64), layers: make(map[string]float64)}
}

func (r *result) line(name string, value float64, unit, note string) {
	r.report = append(r.report, reportLine{name, value, unit, note})
}

var workloads = map[string]func(context.Context, opts) (*result, error){
	"fig3-sweep":     runFig3Sweep,
	"grid-rel-sweep": runGridRelSweep,
	"served-mix":     runServedMix,
	"session-stream": runSessionStream,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o opts
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; every generated input derives from it")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds per run")
	fs.IntVar(&traceFlag, "trace", 0, "1: traced run reporting the per-layer metrics")
	fs.StringVar(&o.out, "out", ".", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag == 1
	runW, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds > 0, -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	// Every workload bounds itself by -seconds; this deadline only stops
	// a wedged run well inside the three-minute limit.
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()

	res, err := runW(ctx, o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	res.e2e["max_rss_mb"] = maxRSSMB()
	if o.trace {
		res.layers["bench.fail_ratio"] = failRatio(&res.checks)
	}
	writeReport(stdout, o, res)
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func failRatio(c *checks) float64 {
	if c.attempted == 0 {
		return 1
	}
	return float64(c.failed) / float64(c.attempted)
}

// writeReport prints the human-readable lines and, last, the JSON
// result line.
func writeReport(w io.Writer, o opts, res *result) {
	mode := "untraced"
	if o.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g %s\n", o.workload, o.seed, o.seconds, mode)
	fmt.Fprintf(w, "digest sha256:%s\n", res.digest)
	fmt.Fprintln(w, "note: the simulator is not validated against hardware measurements, so no model-error figure is given")
	defs, values := e2eMetrics, res.e2e
	if o.trace {
		defs, values = layerMetrics, res.layers
	}
	for _, d := range defs {
		v := values[d.name]
		switch {
		case math.IsNaN(v) || math.IsInf(v, 0):
			res.checks.fail("metric %s is %v", d.name, v)
			values[d.name] = 0
		case !o.trace && v <= 0:
			res.checks.fail("end-to-end metric %s not measured (%v)", d.name, v)
		}
	}
	for _, l := range res.report {
		note := ""
		if l.note != "" {
			note = "  (" + l.note + ")"
		}
		fmt.Fprintf(w, "%-32s %14.6g %s%s\n", l.name, l.value, l.unit, note)
	}
	fmt.Fprintf(w, "fail_ratio %g (%d of %d operations)\n", failRatio(&res.checks), res.checks.failed, res.checks.attempted)
	for _, m := range res.checks.msgs {
		fmt.Fprintf(w, "FAILED: %s\n", m)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.name] = value{values[d.name], d.unit}
		if !o.trace {
			fmt.Fprintf(w, "metric %-28s %14.6g %s\n", d.name, values[d.name], d.unit)
		}
	}
	attempted := max(res.checks.attempted, 1)
	// Marshal cannot fail: every value is finite.
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.checks.failed == 0 && res.checks.attempted > 0, attempted, res.checks.failed, metrics})
	fmt.Fprintln(w, string(line))
}

// maxRSSMB reads the process's peak resident set size from
// /proc/self/status, falling back to the Go runtime's obtained memory
// where procfs is unavailable.
func maxRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// cpuTime returns the CPU time (user plus system, every thread) the
// process has used so far. Per-tick costs are measured in CPU time:
// on a shared host the process is often runnable but not running, which
// wall time charges to the code and CPU time does not.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// spanPath is where a traced run dumps its spans.
func spanPath(o opts) string {
	return filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
}

// medianSetup runs one set-up repeatedly and returns the median wall
// time in seconds: set-up repeats until it has run at least minReps
// times and for at least minWall, capped at maxReps.
func medianSetup(minReps, maxReps int, minWall time.Duration, setup func() error) (float64, error) {
	var walls []float64
	start := time.Now()
	for len(walls) < maxReps && (len(walls) < minReps || time.Since(start) < minWall) {
		t := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		walls = append(walls, time.Since(t).Seconds())
	}
	return median(walls), nil
}
