package repro_test

import (
	"fmt"

	repro "repro"
)

// Example is the library quickstart: build the paper's EXP-1 stack,
// race the thermally-oblivious OS balancer against the lifetime-aware
// DVFS_Rel policy on the identical workload trace, and compare hot
// spots and worst-block wear. It runs under `go test`, so it can never
// drift from the API.
func Example() {
	spec, err := repro.ExperimentSpec(repro.EXP1)
	if err != nil {
		panic(err)
	}
	stack, err := repro.BuildStack(repro.EXP1)
	if err != nil {
		panic(err)
	}
	bench, err := repro.BenchmarkByName("Web-med")
	if err != nil {
		panic(err)
	}
	// One pre-generated trace replayed under both policies — the
	// fairness rule every comparison in the repository follows.
	jobs, err := repro.GenerateJobs(bench, stack.NumCores(), 60, 7)
	if err != nil {
		panic(err)
	}
	for _, name := range []string{"Default", "DVFS_Rel"} {
		pol, err := repro.PolicyByName(name, stack, 7)
		if err != nil {
			panic(err)
		}
		res, err := repro.Run(repro.SimConfig{
			StackSpec:     spec,
			Policy:        pol,
			Jobs:          jobs,
			DurationS:     60,
			TrackLifetime: true,
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-8s ticks=%d completed=%d worst-block damage=%.2f\n",
			res.PolicyName, res.Ticks, res.JobsCompleted, res.Lifetime.Worst().CycleDamage)
	}
	// Output:
	// Default  ticks=600 completed=21 worst-block damage=0.15
	// DVFS_Rel ticks=600 completed=21 worst-block damage=0.10
}
