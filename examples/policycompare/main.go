// Policy comparison: the scenario behind the paper's Figure 3. A server
// consolidates web and database load onto a 4-tier 3D stack (EXP-3); we
// race all fourteen management policies on the identical job trace and
// report hot-spot residency, performance, and energy.
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
	spec, err := repro.ExperimentSpec(repro.EXP3)
	if err != nil {
		log.Fatal(err)
	}
	stack, err := repro.BuildStack(repro.EXP3)
	if err != nil {
		log.Fatal(err)
	}
	bench, err := repro.BenchmarkByName("Web&DB")
	if err != nil {
		log.Fatal(err)
	}
	jobs, err := repro.GenerateJobs(bench, stack.NumCores(), durationS, 7)
	if err != nil {
		log.Fatal(err)
	}

	table := report.NewTable(
		fmt.Sprintf("All policies on %v, %s, %d s (identical trace)", repro.EXP3, bench.Name, durationS),
		"Policy", "Hot%", "Grad%", "Cyc%", "PeakC", "Perf", "AvgW")

	var baseResponse float64
	for _, name := range repro.PolicyNames() {
		pol, err := repro.PolicyByName(name, stack, 7)
		if err != nil {
			log.Fatal(err)
		}
		res, err := repro.Run(repro.SimConfig{
			StackSpec: spec,
			Policy:    pol,
			Jobs:      jobs,
			DurationS: durationS,
		})
		if err != nil {
			log.Fatal(err)
		}
		if name == "Default" {
			baseResponse = res.Sched.MeanResponseS
		}
		table.AddRow(name,
			res.Metrics.HotSpotPct,
			res.Metrics.GradientPct,
			res.Metrics.CyclePct,
			res.Metrics.MaxTempC,
			metrics.NormalizedPerformance(baseResponse, res.Sched.MeanResponseS),
			res.AvgPowerW)
	}
	if err := table.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
