package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// GenConfig parameterizes the synthetic trace generator.
type GenConfig struct {
	Bench     Benchmark
	NumCores  int     // size of the target machine (8 or 16)
	DurationS float64 // paper traces are half an hour (1800 s)
	Seed      int64
}

// meanJobS is the mean CPU demand of one thread at full frequency, 8 s.
// The paper records user/kernel thread lifetimes with DTrace: server
// worker threads, database connections and decode runs live for
// seconds to minutes, which is what makes each allocation decision
// thermally consequential. sigmaLog is the lognormal shape of job
// sizes.
const (
	meanJobS = 8
	sigmaLog = 1.0
)

// classParams are the two-state Markov-modulated arrival parameters per
// burstiness class: the busy-state rate multiplier, the long-run busy
// fraction, and the mean dwell times.
type classParams struct {
	busyMult  float64
	busyFrac  float64
	dwellBusy float64 // seconds, mean
	dwellQuie float64
	periodic  bool // deterministic cycle instead of Markov switching
}

func paramsFor(c Burstiness) classParams {
	switch c {
	case BurstBursty:
		return classParams{busyMult: 2.2, busyFrac: 0.35, dwellBusy: 1.4, dwellQuie: 2.6}
	case BurstPhased:
		return classParams{busyMult: 1.7, busyFrac: 0.5, dwellBusy: 3, dwellQuie: 3}
	case BurstPeriodic:
		return classParams{busyMult: 2.5, busyFrac: 0.3, dwellBusy: 0.3, dwellQuie: 0.7, periodic: true}
	default: // BurstSteady
		return classParams{busyMult: 1, busyFrac: 1, dwellBusy: 1e9, dwellQuie: 0}
	}
}

// quietMult derives the quiet-state multiplier so the long-run average
// rate multiplier is exactly 1.
func (p classParams) quietMult() float64 {
	if p.busyFrac >= 1 {
		return 1
	}
	q := (1 - p.busyFrac*p.busyMult) / (1 - p.busyFrac)
	if q < 0.02 {
		return 0.02
	}
	return q
}

// Generate produces a job trace whose offered load matches the
// benchmark's Table I average utilization on a machine with
// cfg.NumCores cores, with the temporal structure of the benchmark's
// burstiness class. The trace is deterministic in cfg.Seed.
func Generate(cfg GenConfig) ([]Job, error) {
	if cfg.NumCores <= 0 {
		return nil, fmt.Errorf("workload: NumCores must be positive, got %d", cfg.NumCores)
	}
	if cfg.DurationS <= 0 {
		return nil, fmt.Errorf("workload: DurationS must be positive, got %g", cfg.DurationS)
	}
	if cfg.Bench.AvgUtilPct <= 0 || cfg.Bench.AvgUtilPct > 100 {
		return nil, fmt.Errorf("workload: benchmark %q has invalid utilization %g%%", cfg.Bench.Name, cfg.Bench.AvgUtilPct)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	cp := paramsFor(cfg.Bench.Class)

	// Mean chip-wide arrival rate so that lambda * E[W] = rho * cores.
	rho := cfg.Bench.AvgUtil()
	lambdaMean := rho * float64(cfg.NumCores) / meanJobS
	muLog := math.Log(meanJobS) - sigmaLog*sigmaLog/2

	// The load is produced by several independent clients (SLAMD drives
	// the web servers with multiple client threads; database load comes
	// from many connections). Each client is its own Markov-modulated
	// stream; their superposition keeps per-client burstiness while the
	// chip-wide load fluctuates less than a single giant on/off source.
	streams := clientStreams(cfg.Bench.Class, cfg.NumCores)

	var jobs []Job
	for s := 0; s < streams; s++ {
		streamRate := lambdaMean / float64(streams)
		busy := rng.Float64() < cp.busyFrac
		advanceSwitch := func(now float64) float64 {
			if cp.periodic {
				// Deterministic frame cycle.
				if busy {
					return now + cp.dwellBusy
				}
				return now + cp.dwellQuie
			}
			mean := cp.dwellQuie
			if busy {
				mean = cp.dwellBusy
			}
			if mean <= 0 {
				return math.Inf(1)
			}
			return now + rng.ExpFloat64()*mean
		}
		now := 0.0
		nextSwitch := advanceSwitch(now)
		for now < cfg.DurationS {
			rate := streamRate * cp.quietMult()
			if busy {
				rate = streamRate * cp.busyMult
			}
			var next float64
			if rate <= 0 {
				next = math.Inf(1)
			} else {
				next = now + rng.ExpFloat64()/rate
			}
			if next > nextSwitch {
				// State switches before the next arrival.
				now = nextSwitch
				busy = !busy
				nextSwitch = advanceSwitch(now)
				continue
			}
			now = next
			if now >= cfg.DurationS {
				break
			}
			work := math.Exp(muLog + sigmaLog*rng.NormFloat64())
			work = math.Min(math.Max(work, 0.1), 12*meanJobS)
			jobs = append(jobs, Job{
				ArrivalS:    now,
				WorkS:       work,
				MemActivity: clamp01(cfg.Bench.MemActivity() + 0.05*rng.NormFloat64()),
				FPIntensity: clamp01(cfg.Bench.FPIntensity() + 0.05*rng.NormFloat64()),
			})
		}
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].ArrivalS < jobs[j].ArrivalS })
	for i := range jobs {
		jobs[i].ID = i
	}
	return jobs, nil
}

// clientStreams returns the number of independent client streams per
// burstiness class.
func clientStreams(c Burstiness, numCores int) int {
	switch c {
	case BurstBursty:
		s := numCores / 2
		if s < 4 {
			s = 4
		}
		return s
	case BurstPhased:
		return 2
	case BurstPeriodic:
		return 2
	default:
		return 1
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// UtilizationTrace bins a job trace into mpstat-style per-interval
// offered utilization (chip-wide, normalized per core). It is used to
// validate the generator against Table I and to export traces.
func UtilizationTrace(jobs []Job, numCores int, durationS, intervalS float64) []float64 {
	if intervalS <= 0 || durationS <= 0 || numCores <= 0 {
		return nil
	}
	n := int(math.Ceil(durationS / intervalS))
	out := make([]float64, n)
	for _, j := range jobs {
		idx := int(j.ArrivalS / intervalS)
		if idx >= n {
			idx = n - 1
		}
		out[idx] += j.WorkS
	}
	denom := float64(numCores) * intervalS
	for i := range out {
		out[i] /= denom
	}
	return out
}
