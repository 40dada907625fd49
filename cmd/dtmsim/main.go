// Command dtmsim runs one sweep job — an (experiment or stack, policy,
// workload, replicate) simulation — and prints the paper's metrics for
// that run. Its flags name the job as dtmsweep's do, and the job runs
// through the same mapping (exp.JobConfig), so every number it prints
// equals the matching field of that job's sweep record.
//
// Usage:
//
//	dtmsim -exp 3 -policy Adapt3D -bench Web-med -duration 300 -dpm
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
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
	// The report names and draws the job's resolved stack.
	stack, err := cfg.StackSpec.Build()
	if err != nil {
		log.Fatal(err)
	}
	stackLabel := stack.Name
	if stackLabel == "" {
		stackLabel = "stack:" + cfg.StackSpec.Hash()
	}
	if *traceFlag != "" {
		f, err := os.Create(*traceFlag)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		cfg.TraceWriter = f
	}
	res, err := sim.Run(cfg)
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
		hm, err := thermal.RenderHeatmap(stack, res.FinalBlockTempsC, thermal.HeatmapOptions{})
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
