// Quickstart: build a 2-layer 3D stack, run the paper's Adapt3D policy
// against the OS default load balancer on a medium web-serving workload,
// and compare the thermal outcomes.
package main

import (
	"fmt"
	"log"

	repro "repro"
)

func main() {
	log.SetFlags(0)

	spec, err := repro.ExperimentSpec(repro.EXP2)
	if err != nil {
		log.Fatal(err)
	}
	stack, err := repro.BuildStack(repro.EXP2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(repro.RenderStack(stack))

	bench, err := repro.BenchmarkByName("Web-med")
	if err != nil {
		log.Fatal(err)
	}
	// Both policies replay the exact same job trace for a fair race.
	jobs, err := repro.GenerateJobs(bench, stack.NumCores(), 300, 42)
	if err != nil {
		log.Fatal(err)
	}

	adapt, err := repro.NewAdapt3D(stack, 42)
	if err != nil {
		log.Fatal(err)
	}
	for _, pol := range []repro.Policy{repro.NewDefaultPolicy(), adapt} {
		res, err := repro.Run(repro.SimConfig{
			StackSpec: spec,
			Policy:    pol,
			Jobs:      jobs,
			DurationS: 300,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s: hot spots %.2f%%, peak %.1f °C, avg core %.1f °C, mean response %.3f s\n",
			res.PolicyName, res.Metrics.HotSpotPct, res.Metrics.MaxTempC,
			res.Metrics.AvgCoreTempC, res.Sched.MeanResponseS)
	}
}
