package metrics

import (
	"fmt"
	"math"

	"repro/internal/floorplan"
)

// HotSpotMeter measures the fraction of core-time spent above a
// temperature threshold (Figures 3-4 use 85 °C).
type HotSpotMeter struct {
	ThresholdC float64
	samples    int
	hot        int
	perCoreHot []int
	maxTempC   float64
}

// NewHotSpotMeter builds a meter for numCores cores.
func NewHotSpotMeter(numCores int, thresholdC float64) *HotSpotMeter {
	return &HotSpotMeter{ThresholdC: thresholdC, perCoreHot: make([]int, numCores), maxTempC: math.Inf(-1)}
}

// Record adds one sampling interval of per-core temperatures.
func (m *HotSpotMeter) Record(coreTempsC []float64) {
	for c, t := range coreTempsC {
		m.samples++
		if t > m.ThresholdC {
			m.hot++
			if c < len(m.perCoreHot) {
				m.perCoreHot[c]++
			}
		}
		if t > m.maxTempC {
			m.maxTempC = t
		}
	}
}

// Pct returns the percentage of core-samples above the threshold.
func (m *HotSpotMeter) Pct() float64 {
	if m.samples == 0 {
		return 0
	}
	return 100 * float64(m.hot) / float64(m.samples)
}

// MaxTempC returns the hottest core temperature seen (NaN-safe: -Inf
// before any sample).
func (m *HotSpotMeter) MaxTempC() float64 { return m.maxTempC }

// PerCorePct returns the per-core hot residency in percent.
func (m *HotSpotMeter) PerCorePct() []float64 {
	out := make([]float64, len(m.perCoreHot))
	if m.samples == 0 {
		return out
	}
	perCoreSamples := m.samples / len(m.perCoreHot)
	if perCoreSamples == 0 {
		return out
	}
	for c, h := range m.perCoreHot {
		out[c] = 100 * float64(h) / float64(perCoreSamples)
	}
	return out
}

// GradientMeter measures in-plane spatial gradients: at every sample the
// per-layer (hottest unit - coolest unit) difference is computed and the
// maximum over layers compared against the threshold (15 °C in Figure 5,
// after [1]: 15-20 °C gradients start causing clock skew and delay
// problems).
//
// Stack.Blocks lists blocks layer by layer, so each layer is one
// contiguous range of the block temperatures (the constructor checks
// this), and Record folds each range with builtin min and max, which
// compile inline. They differ from math.Min and math.Max only where a
// NaN meets an infinity (math.Min(NaN, −Inf) is −Inf, builtin min
// gives NaN). Any NaN makes the layer's difference NaN, and Record
// then refolds that layer with math.Min and math.Max, so every output
// is what folding with them gives. The meter holds one int per layer.
type GradientMeter struct {
	ThresholdC float64
	stack      *floorplan.Stack
	// layerEnd[li] is one past layer li's last index in Stack.Blocks;
	// layer li starts where layer li−1 ends.
	layerEnd []int
	samples  int
	above    int
	sumMax   float64
	maxSeen  float64
}

// NewGradientMeter builds a meter over the stack's layers. It panics
// if Stack.Blocks does not list the layers' blocks layer by layer, as
// a finalized stack does.
func NewGradientMeter(stack *floorplan.Stack, thresholdC float64) *GradientMeter {
	g := &GradientMeter{ThresholdC: thresholdC, stack: stack, layerEnd: make([]int, len(stack.Layers))}
	blocks, end := stack.Blocks(), 0
	for li, layer := range stack.Layers {
		for _, b := range layer.Blocks {
			if end >= len(blocks) || blocks[end] != b {
				panic(fmt.Sprintf("metrics: stack %q does not list block %q of layer %d at index %d of Blocks()", stack.Name, b.Name, li, end))
			}
			end++
		}
		g.layerEnd[li] = end
	}
	return g
}

// Record adds one sample of per-block temperatures (stack block order).
func (g *GradientMeter) Record(blockTempsC []float64) error {
	if len(blockTempsC) != g.stack.NumBlocks() {
		return fmt.Errorf("metrics: gradient meter got %d temps for %d blocks", len(blockTempsC), g.stack.NumBlocks())
	}
	worst, start := 0.0, 0
	for _, end := range g.layerEnd {
		layer := blockTempsC[start:end]
		start = end
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, t := range layer {
			lo = min(lo, t)
			hi = max(hi, t)
		}
		d := hi - lo
		if d != d { // a NaN in the layer, or equal infinities
			lo, hi = math.Inf(1), math.Inf(-1)
			for _, t := range layer {
				lo = math.Min(lo, t)
				hi = math.Max(hi, t)
			}
			d = hi - lo
		}
		if d > worst {
			worst = d
		}
	}
	g.samples++
	g.sumMax += worst
	if worst > g.maxSeen {
		g.maxSeen = worst
	}
	if worst > g.ThresholdC {
		g.above++
	}
	return nil
}

// Pct returns the percentage of samples whose worst per-layer gradient
// exceeds the threshold.
func (g *GradientMeter) Pct() float64 {
	if g.samples == 0 {
		return 0
	}
	return 100 * float64(g.above) / float64(g.samples)
}

// MeanMaxGradientC returns the time-average of the per-sample worst
// gradient.
func (g *GradientMeter) MeanMaxGradientC() float64 {
	if g.samples == 0 {
		return 0
	}
	return g.sumMax / float64(g.samples)
}

// MaxGradientC returns the worst gradient observed.
func (g *GradientMeter) MaxGradientC() float64 { return g.maxSeen }

// VerticalGradientMeter tracks the temperature difference between
// vertically overlapping blocks on adjacent layers — the quantity that
// stresses TSVs. The paper observes these stay within a few degrees.
type VerticalGradientMeter struct {
	stack   *floorplan.Stack
	pairs   [][2]int // block index pairs with vertical overlap
	samples int
	sumMax  float64
	maxSeen float64
}

// NewVerticalGradientMeter precomputes the overlapping pairs.
func NewVerticalGradientMeter(stack *floorplan.Stack) *VerticalGradientMeter {
	m := &VerticalGradientMeter{stack: stack}
	for li := 0; li+1 < len(stack.Layers); li++ {
		for _, bl := range stack.Layers[li].Blocks {
			for _, bu := range stack.Layers[li+1].Blocks {
				if bl.Rect.OverlapArea(bu.Rect) > 0 {
					m.pairs = append(m.pairs, [2]int{stack.BlockIndex(bl), stack.BlockIndex(bu)})
				}
			}
		}
	}
	return m
}

// Record adds one sample of per-block temperatures.
func (m *VerticalGradientMeter) Record(blockTempsC []float64) error {
	if len(blockTempsC) != m.stack.NumBlocks() {
		return fmt.Errorf("metrics: vertical meter got %d temps for %d blocks", len(blockTempsC), m.stack.NumBlocks())
	}
	worst := 0.0
	for _, p := range m.pairs {
		if d := math.Abs(blockTempsC[p[0]] - blockTempsC[p[1]]); d > worst {
			worst = d
		}
	}
	m.samples++
	m.sumMax += worst
	if worst > m.maxSeen {
		m.maxSeen = worst
	}
	return nil
}

// MaxC returns the worst vertical gradient observed.
func (m *VerticalGradientMeter) MaxC() float64 { return m.maxSeen }

// MeanMaxC returns the time-averaged worst vertical gradient.
func (m *VerticalGradientMeter) MeanMaxC() float64 {
	if m.samples == 0 {
		return 0
	}
	return m.sumMax / float64(m.samples)
}
