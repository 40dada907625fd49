package metrics

import (
	"fmt"

	"repro/internal/floorplan"
)

// Collector bundles every meter the experiments need and feeds them from
// one Record call per sampling interval.
type Collector struct {
	HotSpot  *HotSpotMeter
	Gradient *GradientMeter
	Vertical *VerticalGradientMeter
	Cycle    *CycleMeter

	stack   *floorplan.Stack
	sumCore float64
	nCore   int
}

// The paper's fixed thresholds: a spatial gradient counts when a
// layer's spread exceeds gradientC (15 °C), and a thermal cycle when a
// core's temperature swings by more than cycleDeltaC (20 °C) within the
// cycle window.
const (
	gradientC   = 15
	cycleDeltaC = 20
)

// CollectorConfig sets the hot-spot threshold and the cycle window;
// zero values select the paper's settings (85 °C, and a 10 s window at
// 100 ms ticks).
type CollectorConfig struct {
	HotSpotC    float64
	CycleWindow int
}

// NewCollector builds the bundle for a stack.
func NewCollector(stack *floorplan.Stack, cfg CollectorConfig) (*Collector, error) {
	if cfg.HotSpotC == 0 {
		cfg.HotSpotC = 85
	}
	if cfg.CycleWindow == 0 {
		cfg.CycleWindow = 100
	}
	cm, err := NewCycleMeter(stack.NumCores(), cfg.CycleWindow, cycleDeltaC)
	if err != nil {
		return nil, err
	}
	return &Collector{
		HotSpot:  NewHotSpotMeter(stack.NumCores(), cfg.HotSpotC),
		Gradient: NewGradientMeter(stack, gradientC),
		Vertical: NewVerticalGradientMeter(stack),
		Cycle:    cm,
		stack:    stack,
	}, nil
}

// CopyFrom copies src's accumulated metric state into the receiver's
// buffers: every meter's counters and the cycle meter's four window
// arrays (its block extrema and running extrema). Both
// collectors must have one shape (core count and cycle window); the
// receiver keeps its thresholds and stack. src is only read.
func (c *Collector) CopyFrom(src *Collector) error {
	h, sh := c.HotSpot, src.HotSpot
	y, sy := c.Cycle, src.Cycle
	if len(h.perCoreHot) != len(sh.perCoreHot) || y.cores != sy.cores || y.WindowTicks != sy.WindowTicks {
		return fmt.Errorf("metrics: copy of a %d-core collector with a %d-tick cycle window into a %d-core one with %d",
			sy.cores, sy.WindowTicks, y.cores, y.WindowTicks)
	}
	h.samples, h.hot, h.maxTempC = sh.samples, sh.hot, sh.maxTempC
	copy(h.perCoreHot, sh.perCoreHot)

	g, sg := c.Gradient, src.Gradient
	g.samples, g.above, g.sumMax, g.maxSeen = sg.samples, sg.above, sg.sumMax, sg.maxSeen

	v, sv := c.Vertical, src.Vertical
	v.samples, v.sumMax, v.maxSeen = sv.samples, sv.sumMax, sv.maxSeen

	y.tick, y.samples, y.above, y.sumAvg = sy.tick, sy.samples, sy.above, sy.sumAvg
	copy(y.hi, sy.hi)
	copy(y.lo, sy.lo)
	copy(y.preHi, sy.preHi)
	copy(y.preLo, sy.preLo)

	c.sumCore, c.nCore = src.sumCore, src.nCore
	return nil
}

// Record feeds one sampling interval.
func (c *Collector) Record(blockTempsC, coreTempsC []float64) error {
	if len(coreTempsC) != c.stack.NumCores() {
		return fmt.Errorf("metrics: collector got %d core temps for %d cores", len(coreTempsC), c.stack.NumCores())
	}
	c.HotSpot.Record(coreTempsC)
	if err := c.Gradient.Record(blockTempsC); err != nil {
		return err
	}
	if err := c.Vertical.Record(blockTempsC); err != nil {
		return err
	}
	if err := c.Cycle.Record(coreTempsC); err != nil {
		return err
	}
	for _, t := range coreTempsC {
		c.sumCore += t
		c.nCore++
	}
	return nil
}

// Summary is the per-run metric set reported by the experiments.
type Summary struct {
	HotSpotPct      float64 // % core-time above 85 °C (Figs. 3-4)
	GradientPct     float64 // % time worst per-layer gradient > 15 °C (Fig. 5)
	CyclePct        float64 // % windows with avg ΔT > 20 °C (Fig. 6)
	MaxTempC        float64
	AvgCoreTempC    float64
	MeanGradientC   float64
	MaxGradientC    float64
	MaxVerticalC    float64 // paper: limited to a few degrees
	MeanVerticalC   float64
	MeanCycleDeltaC float64
	// PerCoreHotPct is the per-core hot-spot residency (CoreID order).
	PerCoreHotPct []float64
}

// Summarize extracts the final numbers.
func (c *Collector) Summarize() Summary {
	avg := 0.0
	if c.nCore > 0 {
		avg = c.sumCore / float64(c.nCore)
	}
	return Summary{
		HotSpotPct:      c.HotSpot.Pct(),
		GradientPct:     c.Gradient.Pct(),
		CyclePct:        c.Cycle.Pct(),
		MaxTempC:        c.HotSpot.MaxTempC(),
		AvgCoreTempC:    avg,
		MeanGradientC:   c.Gradient.MeanMaxGradientC(),
		MaxGradientC:    c.Gradient.MaxGradientC(),
		MaxVerticalC:    c.Vertical.MaxC(),
		MeanVerticalC:   c.Vertical.MeanMaxC(),
		MeanCycleDeltaC: c.Cycle.MeanDeltaC(),
		PerCoreHotPct:   c.HotSpot.PerCorePct(),
	}
}

// NormalizedPerformance returns base/policy mean response time — 1.0 for
// the baseline, below 1 for slower policies — matching the right axis of
// Figure 3.
func NormalizedPerformance(baseMeanResponseS, policyMeanResponseS float64) float64 {
	if policyMeanResponseS <= 0 {
		return 0
	}
	return baseMeanResponseS / policyMeanResponseS
}

// DelayPct returns the average completion delay relative to the baseline
// in percent (Section V-A's performance cost measure).
func DelayPct(baseMeanResponseS, policyMeanResponseS float64) float64 {
	if baseMeanResponseS <= 0 {
		return 0
	}
	return 100 * (policyMeanResponseS - baseMeanResponseS) / baseMeanResponseS
}
