package main

import (
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"repro/internal/floorplan"
	"repro/internal/session"
)

// newRand derives an independent random stream from the workload seed
// and a stream name, so adding draws to one input never shifts another.
func newRand(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64()&math.MaxInt64)))
}

// simSeed draws a simulation seed: positive and far from the small
// seeds the repository's own tests use.
func simSeed(rng *rand.Rand) int64 { return 1000 + rng.Int63n(1<<40) }

// arrivals returns n open-loop due times of a Poisson process at rate
// per second, measured from the phase start.
func arrivals(rng *rand.Rand, rate float64, n int) []time.Duration {
	due := make([]time.Duration, n)
	t := 0.0
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// pick returns k distinct elements of xs in their original order.
func pick(rng *rand.Rand, xs []string, k int) []string {
	idx := rng.Perm(len(xs))[:k]
	keep := make(map[int]bool, k)
	for _, i := range idx {
		keep[i] = true
	}
	out := make([]string, 0, k)
	for i, x := range xs {
		if keep[i] {
			out = append(out, x)
		}
	}
	return out
}

// perturbedStack returns a shipped experiment stack whose interface
// resistivity is scaled by a seeded factor, so every call yields a new
// content hash and therefore a new thermal factorization.
func perturbedStack(rng *rand.Rand, base floorplan.Experiment) (floorplan.StackSpec, error) {
	spec, err := floorplan.SpecForExperiment(base)
	if err != nil {
		return floorplan.StackSpec{}, err
	}
	r := spec.InterlayerResistivityMKW
	if r == 0 {
		r = 0.23
	}
	spec.InterlayerResistivityMKW = r * (0.8 + 0.4*rng.Float64())
	spec.TSVsPerInterface = 0
	spec.Name = ""
	return spec, nil
}

// eventStorm returns a seeded script of session events over a stack
// with numCores cores: policy swaps, forced migrations, and TSV
// degradations, in random order.
func eventStorm(rng *rand.Rand, roster []string, numCores, n int) []session.Event {
	evs := make([]session.Event, n)
	for i := range evs {
		switch rng.Intn(3) {
		case 0:
			evs[i] = session.Event{Type: session.EventSetPolicy, Policy: roster[rng.Intn(len(roster))]}
		case 1:
			from := rng.Intn(numCores)
			to := (from + 1 + rng.Intn(numCores-1)) % numCores
			evs[i] = session.Event{Type: session.EventMigrate, From: from, To: to}
		default:
			evs[i] = session.Event{Type: session.EventFailTSV, Factor: 1 + rng.Float64()}
		}
	}
	return evs
}
