package metrics

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/floorplan"
)

func TestHotSpotMeter(t *testing.T) {
	m := NewHotSpotMeter(2, 85)
	m.Record([]float64{80, 90}) // 1 of 2 hot
	m.Record([]float64{86, 90}) // 2 of 2 hot
	if got := m.Pct(); math.Abs(got-75) > 1e-9 {
		t.Errorf("Pct = %g, want 75", got)
	}
	if m.MaxTempC() != 90 {
		t.Errorf("MaxTempC = %g, want 90", m.MaxTempC())
	}
	pc := m.PerCorePct()
	if math.Abs(pc[0]-50) > 1e-9 || math.Abs(pc[1]-100) > 1e-9 {
		t.Errorf("PerCorePct = %v, want [50 100]", pc)
	}
}

func TestHotSpotMeterEmpty(t *testing.T) {
	m := NewHotSpotMeter(2, 85)
	if m.Pct() != 0 {
		t.Error("empty meter should report 0")
	}
}

func TestHotSpotBoundaryNotCounted(t *testing.T) {
	m := NewHotSpotMeter(1, 85)
	m.Record([]float64{85}) // exactly at threshold: "above" means strictly
	if m.Pct() != 0 {
		t.Error("threshold-equal temperature counted as hot spot")
	}
}

func TestGradientMeter(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP1)
	g := NewGradientMeter(s, 15)
	temps := make([]float64, s.NumBlocks())
	for i := range temps {
		temps[i] = 60
	}
	if err := g.Record(temps); err != nil {
		t.Fatal(err)
	}
	if g.Pct() != 0 {
		t.Error("uniform temperatures should have no gradient events")
	}
	// Heat one core on layer 0 by 20 °C: per-layer gradient 20 > 15.
	temps[s.BlockIndex(s.Core(0))] = 80
	g.Record(temps)
	if math.Abs(g.Pct()-50) > 1e-9 {
		t.Errorf("Pct = %g, want 50 (one of two samples)", g.Pct())
	}
	if math.Abs(g.MaxGradientC()-20) > 1e-9 {
		t.Errorf("MaxGradientC = %g, want 20", g.MaxGradientC())
	}
	if g.MeanMaxGradientC() <= 0 {
		t.Error("mean gradient should be positive")
	}
}

func TestGradientMeterIsPerLayer(t *testing.T) {
	// A difference between layers (but uniform within each layer) is NOT
	// an in-plane gradient.
	s := floorplan.MustBuild(floorplan.EXP1)
	g := NewGradientMeter(s, 15)
	temps := make([]float64, s.NumBlocks())
	for _, b := range s.Layers[0].Blocks {
		temps[s.BlockIndex(b)] = 60
	}
	for _, b := range s.Layers[1].Blocks {
		temps[s.BlockIndex(b)] = 90
	}
	g.Record(temps)
	if g.Pct() != 0 {
		t.Error("interlayer difference counted as in-plane gradient")
	}
}

func TestGradientMeterValidation(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP1)
	g := NewGradientMeter(s, 15)
	if err := g.Record([]float64{1}); err == nil {
		t.Error("wrong vector length accepted")
	}
}

func TestVerticalGradientMeter(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP1)
	v := NewVerticalGradientMeter(s)
	if len(v.pairs) == 0 {
		t.Fatal("no overlapping pairs found in a stacked floorplan")
	}
	temps := make([]float64, s.NumBlocks())
	for _, b := range s.Layers[0].Blocks {
		temps[s.BlockIndex(b)] = 70
	}
	for _, b := range s.Layers[1].Blocks {
		temps[s.BlockIndex(b)] = 73
	}
	if err := v.Record(temps); err != nil {
		t.Fatal(err)
	}
	if math.Abs(v.MaxC()-3) > 1e-9 {
		t.Errorf("MaxC = %g, want 3", v.MaxC())
	}
	if math.Abs(v.MeanMaxC()-3) > 1e-9 {
		t.Errorf("MeanMaxC = %g, want 3", v.MeanMaxC())
	}
}

func TestCycleMeterWindow(t *testing.T) {
	m, err := NewCycleMeter(1, 5, 20)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the window with a 30-degree swing.
	seq := []float64{50, 80, 50, 80, 50, 80, 50}
	for _, v := range seq {
		if err := m.Record([]float64{v}); err != nil {
			t.Fatal(err)
		}
	}
	// First 5 samples only fill; samples 6,7 judge windows with ΔT=30.
	if m.samples != 2 {
		t.Fatalf("judged %d windows, want 2", m.samples)
	}
	if m.Pct() != 100 {
		t.Errorf("Pct = %g, want 100", m.Pct())
	}
	if math.Abs(m.MeanDeltaC()-30) > 1e-9 {
		t.Errorf("MeanDeltaC = %g, want 30", m.MeanDeltaC())
	}
}

func TestCycleMeterQuietSignal(t *testing.T) {
	m, _ := NewCycleMeter(2, 3, 20)
	for i := 0; i < 10; i++ {
		m.Record([]float64{60 + float64(i%2), 61})
	}
	if m.Pct() != 0 {
		t.Errorf("small fluctuations counted as cycles: %g%%", m.Pct())
	}
}

func TestCycleMeterValidation(t *testing.T) {
	if _, err := NewCycleMeter(0, 5, 20); err == nil {
		t.Error("zero cores accepted")
	}
	if _, err := NewCycleMeter(2, 1, 20); err == nil {
		t.Error("window of 1 accepted")
	}
	m, _ := NewCycleMeter(2, 5, 20)
	if err := m.Record([]float64{1}); err == nil {
		t.Error("wrong vector length accepted")
	}
}

func TestRainflowSimpleCycle(t *testing.T) {
	r := NewRainflow()
	// Classic sequence: a small inner cycle (80->60->80 is amplitude 20
	// inner to the larger 50->90 ramp).
	for _, v := range []float64{50, 90, 60, 80, 40} {
		r.Push(v)
	}
	full := r.FullCycles()
	if len(full) != 1 || math.Abs(full[0]-20) > 1e-9 {
		t.Errorf("full cycles = %v, want one cycle of amplitude 20", full)
	}
	if r.CountAbove(15) != 1 || r.CountAbove(25) != 0 {
		t.Error("CountAbove wrong")
	}
	if len(r.ResidualHalfCycles()) == 0 {
		t.Error("expected residual half cycles from the outer ramp")
	}
}

func TestRainflowMonotoneSeriesHasNoFullCycles(t *testing.T) {
	r := NewRainflow()
	for i := 0; i < 50; i++ {
		r.Push(float64(i))
	}
	if len(r.FullCycles()) != 0 {
		t.Error("monotone series produced full cycles")
	}
}

func TestRainflowHistogram(t *testing.T) {
	r := NewRainflow()
	for i := 0; i < 10; i++ {
		r.Push(50)
		r.Push(75) // repeated 25-degree swings close cycles
	}
	edges := []float64{0, 10, 20, 30}
	h := r.Histogram(edges)
	total := 0
	for _, n := range h {
		total += n
	}
	if total != len(r.FullCycles()) {
		t.Errorf("histogram total %d != full cycles %d", total, len(r.FullCycles()))
	}
	if h[2] != total {
		t.Errorf("all 25-degree cycles should land in bin [20,30), got %v", h)
	}
}

func TestCollectorEndToEnd(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP1)
	c, err := NewCollector(s, CollectorConfig{CycleWindow: 5})
	if err != nil {
		t.Fatal(err)
	}
	block := make([]float64, s.NumBlocks())
	core := make([]float64, s.NumCores())
	for i := 0; i < 20; i++ {
		for j := range block {
			block[j] = 70 + float64(i%3)
		}
		for j := range core {
			core[j] = 70 + float64(i%3)
		}
		core[0] = 88 // persistent hot spot on core 0
		block[s.BlockIndex(s.Core(0))] = 88
		if err := c.Record(block, core); err != nil {
			t.Fatal(err)
		}
	}
	sum := c.Summarize()
	wantHot := 100.0 / float64(s.NumCores())
	if math.Abs(sum.HotSpotPct-wantHot) > 1e-9 {
		t.Errorf("HotSpotPct = %g, want %g", sum.HotSpotPct, wantHot)
	}
	if sum.GradientPct != 100 {
		t.Errorf("GradientPct = %g, want 100 (core 0 is 15+ degrees above)", sum.GradientPct)
	}
	if sum.MaxTempC != 88 {
		t.Errorf("MaxTempC = %g", sum.MaxTempC)
	}
	if sum.AvgCoreTempC <= 70 || sum.AvgCoreTempC >= 88 {
		t.Errorf("AvgCoreTempC = %g out of expected range", sum.AvgCoreTempC)
	}
}

func TestCollectorValidation(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP1)
	c, _ := NewCollector(s, CollectorConfig{})
	if err := c.Record(make([]float64, s.NumBlocks()), []float64{1}); err == nil {
		t.Error("wrong core vector accepted")
	}
}

func TestNormalizedPerformance(t *testing.T) {
	if got := NormalizedPerformance(1.0, 1.25); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("NormalizedPerformance = %g, want 0.8", got)
	}
	if NormalizedPerformance(1, 0) != 0 {
		t.Error("zero policy response should return 0")
	}
	if got := DelayPct(2.0, 2.5); math.Abs(got-25) > 1e-9 {
		t.Errorf("DelayPct = %g, want 25", got)
	}
	if DelayPct(0, 1) != 0 {
		t.Error("zero base should return 0")
	}
}

// TestCycleMeterMatchesNaiveScan cross-validates the monotonic-deque
// window extrema against a brute-force rescan of the trailing window on
// randomized multi-core traces. The deque rewrite is a hot-loop
// optimization; its Pct and MeanDeltaC must stay bit-identical to the
// scanning implementation's.
func TestCycleMeterMatchesNaiveScan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const cores, window, ticks = 4, 50, 400
	m, err := NewCycleMeter(cores, window, 20)
	if err != nil {
		t.Fatal(err)
	}
	hist := make([][]float64, 0, ticks)
	var samples, above int
	var sumAvg float64
	for s := 0; s < ticks; s++ {
		temps := make([]float64, cores)
		for c := range temps {
			temps[c] = 60 + 25*rng.Float64()
		}
		hist = append(hist, temps)
		if err := m.Record(temps); err != nil {
			t.Fatal(err)
		}
		if s+1 <= window {
			continue
		}
		// Naive reference: rescan the trailing window per core, summing
		// in core order exactly as Record does.
		avg := 0.0
		for c := 0; c < cores; c++ {
			mx, mn := math.Inf(-1), math.Inf(1)
			for w := s - window + 1; w <= s; w++ {
				v := hist[w][c]
				if v > mx {
					mx = v
				}
				if v < mn {
					mn = v
				}
			}
			avg += mx - mn
		}
		avg /= cores
		samples++
		sumAvg += avg
		if avg > 20 {
			above++
		}
	}
	wantPct := 100 * float64(above) / float64(samples)
	if m.Pct() != wantPct {
		t.Errorf("Pct = %g, naive scan gives %g", m.Pct(), wantPct)
	}
	wantMean := sumAvg / float64(samples)
	if m.MeanDeltaC() != wantMean {
		t.Errorf("MeanDeltaC = %g, naive scan gives %g", m.MeanDeltaC(), wantMean)
	}
}
