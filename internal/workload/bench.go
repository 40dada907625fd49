package workload

import "fmt"

// Burstiness classifies the temporal structure of an application's load.
type Burstiness int

const (
	// BurstSteady is near-constant load (e.g. gzip compression runs).
	BurstSteady Burstiness = iota
	// BurstPhased alternates compute and I/O phases on second scales
	// (e.g. gcc).
	BurstPhased
	// BurstBursty has client-driven on/off arrival bursts (web serving,
	// database transactions).
	BurstBursty
	// BurstPeriodic has frame-periodic load (multimedia decode).
	BurstPeriodic
)

// String implements fmt.Stringer.
func (b Burstiness) String() string {
	switch b {
	case BurstSteady:
		return "steady"
	case BurstPhased:
		return "phased"
	case BurstBursty:
		return "bursty"
	case BurstPeriodic:
		return "periodic"
	default:
		return fmt.Sprintf("Burstiness(%d)", int(b))
	}
}

// Benchmark is one Table I row.
type Benchmark struct {
	ID   int
	Name string
	// AvgUtilPct is the average per-core utilization over the original
	// half-hour trace, in percent (Table I column 2).
	AvgUtilPct float64
	// L2IMissPer100K and L2DMissPer100K are L2 instruction/data misses
	// per 100K instructions (Table I columns 3-4).
	L2IMissPer100K float64
	L2DMissPer100K float64
	// FPPer100K is floating point instructions per 100K (Table I col 5).
	FPPer100K float64
	// Class drives the synthetic arrival process.
	Class Burstiness
}

// TableI lists the paper's eight benchmarks with the exact published
// statistics.
func TableI() []Benchmark {
	return []Benchmark{
		{1, "Web-med", 53.12, 12.9, 167.7, 31.2, BurstBursty},
		{2, "Web-high", 92.87, 67.6, 288.7, 31.2, BurstBursty},
		{3, "Database", 17.75, 6.5, 102.3, 5.9, BurstBursty},
		{4, "Web&DB", 75.12, 21.5, 115.3, 24.1, BurstBursty},
		{5, "gcc", 15.25, 31.7, 96.2, 18.1, BurstPhased},
		{6, "gzip", 9, 2, 57, 0.2, BurstSteady},
		{7, "MPlayer", 6.5, 9.6, 136, 1, BurstPeriodic},
		{8, "MPlayer&Web", 26.62, 9.1, 66.8, 29.9, BurstBursty},
	}
}

// ByName returns the Table I benchmark with the given name.
func ByName(name string) (Benchmark, error) {
	for _, b := range TableI() {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// AvgUtil returns the average utilization as a fraction in [0,1].
func (b Benchmark) AvgUtil() float64 { return b.AvgUtilPct / 100 }

// maxMissPer100K normalizes combined L2 miss rates; Web-high's 356.3
// combined misses per 100K is the observed maximum in Table I.
const maxMissPer100K = 360.0

// MemActivity maps the benchmark's L2 miss statistics to a [0,1] memory
// traffic factor used by the cache and crossbar power models.
func (b Benchmark) MemActivity() float64 {
	a := (b.L2IMissPer100K + b.L2DMissPer100K) / maxMissPer100K
	if a > 1 {
		return 1
	}
	return a
}

// FPIntensity maps FP instruction density to [0,1]; 31.2 per 100K
// (the web workloads) is the Table I maximum.
func (b Benchmark) FPIntensity() float64 {
	a := b.FPPer100K / 31.2
	if a > 1 {
		return 1
	}
	return a
}
