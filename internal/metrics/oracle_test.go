package metrics

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/floorplan"
)

// refCycleMeter is the cycle meter as it stood before the
// van Herk/Gil–Werman rewrite: per-core monotonic deques of window
// extremum candidates. FuzzCollectorRecord holds CycleMeter to it bit
// for bit on inputs without a NaN core temperature.
type refCycleMeter struct {
	DeltaThresholdC float64
	WindowTicks     int

	cores int
	tick  int // samples recorded so far

	maxT []wedge // per-core window maxima candidates
	minT []wedge // per-core window minima candidates

	samples int
	above   int
	sumAvg  float64
}

// wedge is a fixed-capacity monotonic deque over (sample index, value)
// pairs: values decay monotonically from front to back, the front is
// the window extremum, and entries expire from the front once they
// leave the window. Capacity equals the window length, which bounds the
// live entries, so pushes never allocate.
type wedge struct {
	val  []float64
	idx  []int
	head int // ring position of the front entry
	size int
}

// push expires entries outside the window ending at sample s, drops
// dominated entries from the back, and appends (s, t). keepMax selects
// the max-deque order (back values <= t are dominated); otherwise the
// min-deque order.
func (w *wedge) push(s, window int, t float64, keepMax bool) {
	cap := len(w.val)
	for w.size > 0 && w.idx[w.head] <= s-window {
		w.head++
		if w.head == cap {
			w.head = 0
		}
		w.size--
	}
	for w.size > 0 {
		back := w.head + w.size - 1
		if back >= cap {
			back -= cap
		}
		if v := w.val[back]; (keepMax && v <= t) || (!keepMax && v >= t) {
			w.size--
		} else {
			break
		}
	}
	pos := w.head + w.size
	if pos >= cap {
		pos -= cap
	}
	w.val[pos] = t
	w.idx[pos] = s
	w.size++
}

// front returns the current window extremum.
func (w *wedge) front() float64 { return w.val[w.head] }

func newRefCycleMeter(numCores, windowTicks int, deltaThresholdC float64) (*refCycleMeter, error) {
	if numCores <= 0 || windowTicks <= 1 {
		return nil, fmt.Errorf("metrics: cycle meter needs cores and window > 1, got %d cores window %d", numCores, windowTicks)
	}
	m := &refCycleMeter{
		DeltaThresholdC: deltaThresholdC,
		WindowTicks:     windowTicks,
		cores:           numCores,
		maxT:            make([]wedge, numCores),
		minT:            make([]wedge, numCores),
	}
	for c := 0; c < numCores; c++ {
		m.maxT[c] = wedge{val: make([]float64, windowTicks), idx: make([]int, windowTicks)}
		m.minT[c] = wedge{val: make([]float64, windowTicks), idx: make([]int, windowTicks)}
	}
	return m, nil
}

func (m *refCycleMeter) Record(coreTempsC []float64) error {
	if len(coreTempsC) != m.cores {
		return fmt.Errorf("metrics: cycle meter got %d temps for %d cores", len(coreTempsC), m.cores)
	}
	m.tick++
	w := m.WindowTicks
	for c, t := range coreTempsC {
		m.maxT[c].push(m.tick, w, t, true)
		m.minT[c].push(m.tick, w, t, false)
	}
	if m.tick <= w {
		return nil // wait for a full window before judging cycles
	}
	avg := 0.0
	for c := 0; c < m.cores; c++ {
		avg += m.maxT[c].front() - m.minT[c].front()
	}
	avg /= float64(m.cores)
	m.samples++
	m.sumAvg += avg
	if avg > m.DeltaThresholdC {
		m.above++
	}
	return nil
}

func (m *refCycleMeter) Pct() float64 {
	if m.samples == 0 {
		return 0
	}
	return 100 * float64(m.above) / float64(m.samples)
}

func (m *refCycleMeter) MeanDeltaC() float64 {
	if m.samples == 0 {
		return 0
	}
	return m.sumAvg / float64(m.samples)
}

// refGradientMeter is the gradient meter as it stood before the
// rewrite: a block index list per layer, folded with math.Min and
// math.Max.
type refGradientMeter struct {
	ThresholdC float64
	stack      *floorplan.Stack
	// layerIdx holds each layer's block indices, precomputed because
	// Stack.BlockIndex is a linear scan and Record runs every tick.
	layerIdx [][]int
	samples  int
	above    int
	sumMax   float64
	maxSeen  float64
}

func newRefGradientMeter(stack *floorplan.Stack, thresholdC float64) *refGradientMeter {
	g := &refGradientMeter{ThresholdC: thresholdC, stack: stack}
	g.layerIdx = make([][]int, len(stack.Layers))
	for li, layer := range stack.Layers {
		idx := make([]int, len(layer.Blocks))
		for i, b := range layer.Blocks {
			idx[i] = stack.BlockIndex(b)
		}
		g.layerIdx[li] = idx
	}
	return g
}

func (g *refGradientMeter) Record(blockTempsC []float64) error {
	if len(blockTempsC) != g.stack.NumBlocks() {
		return fmt.Errorf("metrics: gradient meter got %d temps for %d blocks", len(blockTempsC), g.stack.NumBlocks())
	}
	worst := 0.0
	for _, idx := range g.layerIdx {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, bi := range idx {
			t := blockTempsC[bi]
			lo = math.Min(lo, t)
			hi = math.Max(hi, t)
		}
		if d := hi - lo; d > worst {
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

func (g *refGradientMeter) Pct() float64 {
	if g.samples == 0 {
		return 0
	}
	return 100 * float64(g.above) / float64(g.samples)
}

func (g *refGradientMeter) MeanMaxGradientC() float64 {
	if g.samples == 0 {
		return 0
	}
	return g.sumMax / float64(g.samples)
}

func (g *refGradientMeter) MaxGradientC() float64 { return g.maxSeen }

// refCollector is Collector over the reference gradient and cycle
// meters; the hot-spot and vertical meters are unchanged.
type refCollector struct {
	hot      *HotSpotMeter
	gradient *refGradientMeter
	vertical *VerticalGradientMeter
	cycle    *refCycleMeter
	sumCore  float64
	nCore    int
}

// newRefCollector builds the reference bundle with the paper's hot
// spot, gradient and cycle thresholds and the given cycle window.
func newRefCollector(stack *floorplan.Stack, window int) (*refCollector, error) {
	cm, err := newRefCycleMeter(stack.NumCores(), window, 20)
	if err != nil {
		return nil, err
	}
	return &refCollector{
		hot:      NewHotSpotMeter(stack.NumCores(), 85),
		gradient: newRefGradientMeter(stack, 15),
		vertical: NewVerticalGradientMeter(stack),
		cycle:    cm,
	}, nil
}

func (c *refCollector) Record(blockTempsC, coreTempsC []float64) error {
	c.hot.Record(coreTempsC)
	if err := c.gradient.Record(blockTempsC); err != nil {
		return err
	}
	if err := c.vertical.Record(blockTempsC); err != nil {
		return err
	}
	if err := c.cycle.Record(coreTempsC); err != nil {
		return err
	}
	for _, t := range coreTempsC {
		c.sumCore += t
		c.nCore++
	}
	return nil
}

func (c *refCollector) Summarize() Summary {
	avg := 0.0
	if c.nCore > 0 {
		avg = c.sumCore / float64(c.nCore)
	}
	return Summary{
		HotSpotPct:      c.hot.Pct(),
		GradientPct:     c.gradient.Pct(),
		CyclePct:        c.cycle.Pct(),
		MaxTempC:        c.hot.MaxTempC(),
		AvgCoreTempC:    avg,
		MeanGradientC:   c.gradient.MeanMaxGradientC(),
		MaxGradientC:    c.gradient.MaxGradientC(),
		MaxVerticalC:    c.vertical.MaxC(),
		MeanVerticalC:   c.vertical.MeanMaxC(),
		MeanCycleDeltaC: c.cycle.MeanDeltaC(),
		PerCoreHotPct:   c.hot.PerCorePct(),
	}
}

// summaryDiff names the first Summary field whose float64 bits differ
// between got and want, or returns "". skipCycle leaves out the cycle
// meter's fields.
func summaryDiff(got, want Summary, skipCycle bool) string {
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		name := gv.Type().Field(i).Name
		if skipCycle && (name == "CyclePct" || name == "MeanCycleDeltaC") {
			continue
		}
		g, w := gv.Field(i), wv.Field(i)
		if g.Kind() == reflect.Float64 {
			if math.Float64bits(g.Float()) != math.Float64bits(w.Float()) {
				return fmt.Sprintf("%s = %g (%#x), reference %g (%#x)", name, g.Float(), math.Float64bits(g.Float()), w.Float(), math.Float64bits(w.Float()))
			}
			continue
		}
		if g.Len() != w.Len() {
			return fmt.Sprintf("%s has %d entries, reference %d", name, g.Len(), w.Len())
		}
		for k := 0; k < g.Len(); k++ {
			if a, b := g.Index(k).Float(), w.Index(k).Float(); math.Float64bits(a) != math.Float64bits(b) {
				return fmt.Sprintf("%s[%d] = %g (%#x), reference %g (%#x)", name, k, a, math.Float64bits(a), b, math.Float64bits(b))
			}
		}
	}
	return ""
}

// fuzzTemps is the temperature table FuzzCollectorRecord draws from:
// signed zeros, subnormals, infinities, NaN, the three thresholds'
// edges (85 °C and its neighbours; 60 against 75 and 80, which are
// exactly 15 °C and 20 °C apart) and ordinary values. A pattern byte
// beyond the table repeats the block's previous value (plateaus) or
// steps it by a fixed amount.
var fuzzTemps = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1p-1030,
	math.Inf(1), math.Inf(-1), math.NaN(),
	85, math.Nextafter(85, 0), math.Nextafter(85, 100),
	60, 75, 80, 20, 15, 35, 95.5, 1e300, -1e300,
}

// FuzzCollectorRecord holds Collector to refCollector (the hot spot
// and vertical meters beside the deque cycle meter and the index-list
// gradient meter), comparing every Summary field's float64 bits after
// every Record. It covers every builtin stack, cycle windows of 2 to
// 200 ticks and runs that end one tick before, at or after a block
// boundary (every shorter prefix is compared on the way), with
// temperatures from fuzzTemps, plateaus and ramps. At a fuzzed tick the
// run moves to a CopyFrom copy of the collector, and the source takes
// one more sample to show the copy shares nothing. Once a core
// temperature is NaN the two cycle meters may differ (the deque shows a
// NaN only when it reaches the front); the cycle fields are then
// skipped, and MeanCycleDeltaC must be NaN once a judged window has
// held the NaN.
func FuzzCollectorRecord(f *testing.F) {
	var stacks []*floorplan.Stack
	for _, e := range floorplan.ExtendedExperiments() {
		stacks = append(stacks, floorplan.MustBuild(e))
	}
	for i := range stacks {
		f.Add(uint8(i), uint8(3), uint8(9), uint8(7), []byte{200, 201, 230, 12, 13, 14, 240, 250})
		f.Add(uint8(i), uint8(98), uint8(4), uint8(150), []byte{12, 14, 13, 12, 14, 13, 22, 255, 128, 129})
		f.Add(uint8(i), uint8(0), uint8(2), uint8(255), []byte{0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 21, 22})
	}
	f.Add(uint8(0), uint8(5), uint8(1), uint8(3), []byte{12, 8, 14, 13, 12, 12, 12})
	f.Add(uint8(2), uint8(1), uint8(6), uint8(40), []byte{6, 7, 12, 14, 6, 13})
	f.Add(uint8(0), uint8(5), uint8(1), uint8(0), []byte{6, 7, 8, 12}) // NaN beside ±Inf on a layer
	f.Fuzz(func(t *testing.T, which, window, runs, cut uint8, pattern []byte) {
		if len(pattern) == 0 {
			pattern = []byte{12}
		}
		s := stacks[int(which)%len(stacks)]
		w := 2 + int(window)%199
		ticks := (1+int(runs>>2)%4)*w + int(runs&3)%3 - 1
		cfg := CollectorConfig{CycleWindow: w}
		got, err := NewCollector(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := newRefCollector(s, w)
		if err != nil {
			t.Fatal(err)
		}
		nb, cores := s.NumBlocks(), s.NumCores()
		coreIdx := make([]int, cores)
		for c := range coreIdx {
			coreIdx[c] = s.BlockIndex(s.Core(c))
		}
		block, core := make([]float64, nb), make([]float64, cores)
		for b := range block {
			block[b] = 60
		}
		lastNaN, nanJudged := 0, false
		for tick := 1; tick <= ticks; tick++ {
			for b := range block {
				switch k := int(pattern[((tick-1)*nb+b)%len(pattern)]); {
				case k < len(fuzzTemps):
					block[b] = fuzzTemps[k]
				case k < 128:
					block[b] = 40 + float64(k)/4
				case k < 192:
					// plateau: keep the previous value
				default:
					block[b] += float64(k-224) / 8
				}
			}
			for c, bi := range coreIdx {
				core[c] = block[bi]
				if math.IsNaN(core[c]) {
					lastNaN = tick
				}
			}
			if err := got.Record(block, core); err != nil {
				t.Fatal(err)
			}
			if err := want.Record(block, core); err != nil {
				t.Fatal(err)
			}
			if tick == int(cut) {
				cp, err := NewCollector(s, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := cp.CopyFrom(got); err != nil {
					t.Fatal(err)
				}
				for b := range block {
					block[b] = -block[b]
				}
				for c, bi := range coreIdx {
					core[c] = block[bi]
				}
				if err := got.Record(block, core); err != nil {
					t.Fatal(err)
				}
				got = cp
			}
			sum := got.Summarize()
			if d := summaryDiff(sum, want.Summarize(), lastNaN > 0); d != "" {
				t.Fatalf("%s, window %d, tick %d: %s", s.Name, w, tick, d)
			}
			if lastNaN > 0 && tick > w && tick-lastNaN < w {
				nanJudged = true
			}
			if nanJudged && !math.IsNaN(sum.MeanCycleDeltaC) {
				t.Fatalf("%s, window %d, tick %d: MeanCycleDeltaC = %g after a judged window held a NaN", s.Name, w, tick, sum.MeanCycleDeltaC)
			}
		}
	})
}
