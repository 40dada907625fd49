// Command dtmsim runs one sweep job — an (experiment or stack, policy,
// workload, replicate) simulation — and prints the paper's metrics for
// that run. Its flags name the job as dtmsweep's do, and the job runs
// through the same mapping (exp.JobConfig), so every number it prints
// equals the matching field of that job's sweep record. It steps the
// engine itself, so -trace can write the run's per-tick CSV trace.
//
// Usage:
//
//	dtmsim -exp 3 -policy Adapt3D -bench Web-med -duration 300 -dpm
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/internal/exp"
	"repro/internal/floorplan"
	"repro/internal/reliability"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/thermal"
	"repro/internal/workload"
	"repro/scenarios"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dtmsim: ")

	expFlag := flag.String("exp", "1", "experiment configuration (1..6; 5-6 are the extended 16/24-core stacks)")
	stackFlag := flag.String("stack", "", "declarative stack instead of -exp: a StackSpec JSON file or a library name ("+strings.Join(scenarios.Names(), ", ")+"), inlined into the job as dtmsweep -stack does")
	policyFlag := flag.String("policy", "Default", "policy name: "+strings.Join(exp.PolicyOrder, ", "))
	benchFlag := flag.String("bench", "Web-med", "Table I benchmark name")
	durFlag := flag.Float64("duration", 300, "simulated seconds")
	seedFlag := flag.Int64("seed", 1, "replicate seed, as a sweep job's seed: the policy draws from it and the job trace from it plus the benchmark's ID, so dtmsweep -seed s records the same run")
	dpmFlag := flag.Bool("dpm", false, "enable dynamic power management (the paper's fixed 300 ms timeout)")
	gridFlag := flag.Int("grid", 0, "thermal grid resolution per side: N runs an N x N grid (0 = block mode)")
	traceFlag := flag.String("trace", "", "write a per-tick CSV temperature/power trace to this file")
	relFlag := flag.Bool("reliability", false, "track lifetime metrics with the streaming per-block wear tracker: worst core, worst block, per-layer cycling damage, EM acceleration, relative MTTF")
	heatFlag := flag.Bool("heatmap", false, "draw per-layer ASCII heat maps of the final thermal field")
	flag.Parse()

	j := sweep.Job{
		Policy:      *policyFlag,
		Bench:       *benchFlag,
		Seed:        *seedFlag,
		DurationS:   *durFlag,
		UseDPM:      *dpmFlag,
		Reliability: *relFlag,
	}
	if *stackFlag != "" {
		spec, err := scenarios.Load(*stackFlag)
		if err != nil {
			log.Fatal(err)
		}
		j.Scenario.Stack = &sweep.StackRef{Spec: &spec}
	} else {
		e, err := floorplan.ParseExperiment(*expFlag)
		if err != nil {
			log.Fatal(err)
		}
		j.Scenario.Exp = e
	}
	j.Scenario.GridRows, j.Scenario.GridCols = *gridFlag, *gridFlag

	cfg, err := exp.JobConfig(workload.NewTraceCache(), j)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := sim.NewEngine(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// The report names and draws the job's resolved stack.
	stack := eng.Stack()
	stackLabel := stack.Name
	if stackLabel == "" {
		stackLabel = "stack:" + cfg.StackSpec.Hash()
	}
	var trace *traceWriter
	if *traceFlag != "" {
		if trace, err = createTrace(*traceFlag, stack.NumCores()); err != nil {
			log.Fatal(err)
		}
	}
	res, err := run(eng, trace)
	if err != nil {
		log.Fatal(err)
	}

	w := os.Stdout
	fmt.Fprintf(w, "%s on %s, %s, %.0f s simulated, DPM=%v\n", res.PolicyName, stackLabel, j.Bench, j.DurationS, res.UseDPM)
	fmt.Fprintf(w, "  hot spots        : %6.2f %% of core-time above 85 °C\n", res.Metrics.HotSpotPct)
	fmt.Fprintf(w, "  spatial gradients: %6.2f %% of time above 15 °C (worst layer)\n", res.Metrics.GradientPct)
	fmt.Fprintf(w, "  thermal cycles   : %6.2f %% of windows with ΔT > 20 °C\n", res.Metrics.CyclePct)
	fmt.Fprintf(w, "  temperatures     : avg core %.1f °C, peak %.1f °C, worst vertical gradient %.2f °C\n",
		res.Metrics.AvgCoreTempC, res.Metrics.MaxTempC, res.Metrics.MaxVerticalC)
	fmt.Fprintf(w, "  power / energy   : %.1f W average, %.1f kJ total\n", res.AvgPowerW, res.EnergyJ/1000)
	fmt.Fprintf(w, "  scheduling       : %d/%d jobs completed, mean response %.3f s, %d migrations\n",
		res.JobsCompleted, res.JobsGenerated, res.Sched.MeanResponseS, res.Sched.TotalMigration)
	if res.UseDPM {
		fmt.Fprintf(w, "  DPM              : %d sleep transitions\n", res.SleepEntries)
	}
	if res.GatedTicks > 0 {
		fmt.Fprintf(w, "  clock gating     : %d core-ticks stalled\n", res.GatedTicks)
	}
	if lt := res.Lifetime; lt != nil {
		core, worst := worstCore(stack, lt)
		fmt.Fprintf(w, "  reliability      : worst core %d — EM acceleration %.2fx, cycling damage %.3f (%d full cycles)\n",
			core, worst.EMFactor, worst.CycleDamage, worst.Cycles)
		wb := lt.Worst()
		fmt.Fprintf(w, "  lifetime         : worst block %s (layer %d) — cycling damage %.3f over %d cycles, EM %.2fx; chip total %.3f, rel. MTTF %.3g\n",
			wb.Name, wb.Layer, wb.CycleDamage, wb.Cycles, wb.EMFactor, lt.TotalCycleDamage, lt.RelMTTF)
		for l, d := range lt.LayerDamage {
			fmt.Fprintf(w, "    layer %d damage : %.3f\n", l, d)
		}
	}
	if *traceFlag != "" {
		fmt.Fprintf(w, "  trace            : written to %s\n", *traceFlag)
	}
	if *heatFlag {
		hm, err := thermal.RenderHeatmap(stack, res.FinalBlockTempsC)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(w)
		fmt.Fprint(w, hm)
		if hot, err := thermal.HotBlocks(stack, res.FinalBlockTempsC, 85); err == nil && len(hot) > 0 {
			fmt.Fprintf(w, "blocks above 85 °C at end of run: %s\n", strings.Join(hot, ", "))
		}
	}
}

// run steps eng through its whole run and summarizes it. With a trace
// it writes the row of the initial state before the first step and one
// row after each step, and it flushes and closes the trace before it
// returns, on a step error too.
func run(eng *sim.Engine, trace *traceWriter) (*sim.Result, error) {
	err := trace.row(eng)
	for err == nil {
		if err = eng.Step(); err == nil {
			err = trace.row(eng)
		}
	}
	if cerr := trace.close(); err == io.EOF {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return eng.Finish()
}

// traceWriter writes the per-tick CSV trace: time_s (1 decimal), the
// chip's total power in W, then one temperature column per core in °C
// (3 decimals each), through a 64 KB buffer. A nil *traceWriter writes
// nothing.
type traceWriter struct {
	f  *os.File
	bw *bufio.Writer
	st sim.TickState
}

// createTrace creates the trace file at path and buffers its header
// for cores cores. bufio's errors are sticky, so a failed header write
// fails the first row.
func createTrace(path string, cores int) (*traceWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	t := &traceWriter{f: f, bw: bufio.NewWriterSize(f, 64<<10)}
	t.bw.WriteString("time_s,power_w")
	for c := 0; c < cores; c++ {
		fmt.Fprintf(t.bw, ",core%d_c", c)
	}
	t.bw.WriteByte('\n')
	return t, nil
}

// row writes the row of the engine's current tick boundary.
func (t *traceWriter) row(eng *sim.Engine) error {
	if t == nil {
		return nil
	}
	eng.TickStateInto(&t.st)
	b := strconv.AppendFloat(t.bw.AvailableBuffer(), t.st.TimeS, 'f', 1, 64)
	b = append(b, ',')
	b = strconv.AppendFloat(b, t.st.PowerW, 'f', 3, 64)
	for _, v := range t.st.CoreTempsC {
		b = append(b, ',')
		b = strconv.AppendFloat(b, v, 'f', 3, 64)
	}
	_, err := t.bw.Write(append(b, '\n'))
	return err
}

// close flushes the trace and closes its file.
func (t *traceWriter) close() error {
	if t == nil {
		return nil
	}
	return errors.Join(t.bw.Flush(), t.f.Close())
}

// worstCore picks the most stressed core from the run's per-block wear:
// the core block with the largest cycling damage plus EM factor, ties
// going to the lower core id.
func worstCore(stack *floorplan.Stack, lt *reliability.Report) (int, reliability.BlockWear) {
	core, worst := -1, reliability.BlockWear{}
	for c, b := range stack.Cores() {
		w := lt.Blocks[stack.BlockIndex(b)]
		if core < 0 || w.CycleDamage+w.EMFactor > worst.CycleDamage+worst.EMFactor {
			core, worst = c, w
		}
	}
	return core, worst
}
