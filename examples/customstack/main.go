// Custom stack and custom policy: the library is not limited to the
// paper's four configurations. This example declares a 3-tier stack
// (two logic tiers sandwiching a memory tier), implements a bespoke
// "coolest-core-first" policy against the policy interface, and runs it
// with Adapt3D's thermal indices printed for comparison.
package main

import (
	"fmt"
	"log"

	"repro/internal/floorplan"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// coolestFirst is a minimal custom allocator: every job goes to the
// coolest core with the shortest queue, with no probabilistic smoothing.
type coolestFirst struct{}

func (coolestFirst) Name() string { return "CoolestFirst" }

func (coolestFirst) AssignCore(v *policy.View, _ workload.Job) int {
	minQ := v.QueueLens[0]
	for _, q := range v.QueueLens[1:] {
		if q < minQ {
			minQ = q
		}
	}
	best := -1
	for c := 0; c < v.NumCores(); c++ {
		if v.QueueLens[c] != minQ {
			continue
		}
		if best < 0 || v.TempsC[c] < v.TempsC[best] {
			best = c
		}
	}
	return best
}

func (coolestFirst) Tick(*policy.View) policy.TickDecision { return policy.TickDecision{} }

// threeTier describes logic/memory/logic with 8 cores total. The logic
// tiers reuse the T1-derived "mixed" layer template; the memory tier
// between them is an explicit block list (two L2 banks and one filler
// block), showing both ways a StackSpec layer can be declared. Spec
// builds assign core and L2 IDs in layer-then-document order.
func threeTier() floorplan.StackSpec {
	const (
		l2W = floorplan.ChipWMM / 2
		l2H = floorplan.L2AreaMM2 / l2W
	)
	return floorplan.StackSpec{
		Name:                     "custom-3tier",
		InterlayerResistivityMKW: floorplan.NewTSVModel().JointResistivity(2048),
		Layers: []floorplan.LayerSpec{
			{Template: "mixed"},
			{Blocks: []floorplan.BlockSpec{
				{Name: "scdata2", Kind: "l2", X: 0, Y: 0, W: l2W, H: l2H},
				{Name: "scdata3", Kind: "l2", X: l2W, Y: 0, W: l2W, H: l2H},
				{Name: "memother1A", Kind: "other", X: 0, Y: l2H, W: floorplan.ChipWMM, H: floorplan.ChipHMM - l2H},
			}},
			{Template: "mixed"},
		},
	}
}

func main() {
	log.SetFlags(0)

	spec := threeTier()
	stack, err := spec.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(floorplan.RenderStack(stack, 46, 8))

	model, err := thermal.NewBlockModel(stack, thermal.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	alpha, err := policy.SteadyStateIndices(stack, model)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Adapt3D thermal indices for the custom stack:")
	for id, a := range alpha {
		fmt.Printf("  core%-2d layer %d  α = %.2f\n", id, stack.Core(id).Layer, a)
	}

	bench, err := workload.ByName("MPlayer&Web")
	if err != nil {
		log.Fatal(err)
	}
	// Both policies replay one job trace.
	jobs, err := workload.Generate(workload.GenConfig{Bench: bench, NumCores: stack.NumCores(), DurationS: 240, Seed: 9})
	if err != nil {
		log.Fatal(err)
	}
	cfg := policy.DefaultAdapt3DConfig()
	cfg.Seed = 9
	adapt, err := policy.NewAdapt3D(stack, model, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	for _, pol := range []policy.Policy{coolestFirst{}, adapt} {
		res, err := sim.Run(sim.Config{
			StackSpec: &spec,
			Policy:    pol,
			Jobs:      jobs,
			DurationS: 240,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-13s: hot %.2f%%, peak %.1f °C, response %.3f s\n",
			res.PolicyName, res.Metrics.HotSpotPct, res.Metrics.MaxTempC, res.Sched.MeanResponseS)
	}
}
