// Trade-off study: the interaction the paper analyzes in Figures 4-6 —
// how dynamic power management (DPM) changes the thermal picture for
// scheduling-based versus DVFS-based policies, and what each costs in
// performance and energy. Runs the Default, DVFS_TT, Adapt3D, and hybrid
// policies on EXP-1 and EXP-3 with and without DPM.
package main

import (
	"fmt"
	"log"
	"os"

	repro "repro"

	"repro/internal/metrics"
	"repro/internal/report"
)

func main() {
	log.SetFlags(0)

	const durationS = 300
	policies := []string{"Default", "DVFS_TT", "Adapt3D", "Adapt3D&DVFS_TT"}
	table := report.NewTable(
		"DPM / DVFS / scheduling interaction (paper Figs. 4-6 scenario)",
		"Config", "Policy", "DPM", "Hot%", "Cyc%", "Perf", "AvgW", "Sleeps")

	for _, e := range []repro.Experiment{repro.EXP1, repro.EXP3} {
		spec, err := repro.ExperimentSpec(e)
		if err != nil {
			log.Fatal(err)
		}
		stack, err := repro.BuildStack(e)
		if err != nil {
			log.Fatal(err)
		}
		bench, err := repro.BenchmarkByName("Web&DB")
		if err != nil {
			log.Fatal(err)
		}
		jobs, err := repro.GenerateJobs(bench, stack.NumCores(), durationS, 11)
		if err != nil {
			log.Fatal(err)
		}
		var base float64
		for _, dpm := range []bool{false, true} {
			for _, name := range policies {
				pol, err := repro.PolicyByName(name, stack, 11)
				if err != nil {
					log.Fatal(err)
				}
				cfg := repro.SimConfig{
					StackSpec: spec,
					Policy:    pol,
					Jobs:      jobs,
					DurationS: durationS,
				}
				if dpm {
					cfg.DPM = repro.DefaultDPM()
				}
				res, err := repro.Run(cfg)
				if err != nil {
					log.Fatal(err)
				}
				if name == "Default" && !dpm {
					base = res.Sched.MeanResponseS
				}
				table.AddRow(e.String(), name, fmt.Sprintf("%v", dpm),
					res.Metrics.HotSpotPct,
					res.Metrics.CyclePct,
					metrics.NormalizedPerformance(base, res.Sched.MeanResponseS),
					res.AvgPowerW,
					res.SleepEntries)
			}
		}
	}
	if err := table.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nReading guide: DPM cuts power (AvgW) and hot spots but amplifies thermal")
	fmt.Println("cycles (Cyc%) — the reliability trade-off Section V-D discusses; the")
	fmt.Println("hybrid keeps DVFS's hot-spot reduction at a lower performance cost.")
}
