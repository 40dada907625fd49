package metrics

import (
	"fmt"
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

// TestCycleMeterMatchesNaiveScan cross-validates the block-form window
// extrema against a brute-force rescan of the trailing window on
// randomized traces, after every sample: one and several cores,
// windows from the shortest (2) to the paper's 100 ticks, and run
// lengths on and off block boundaries. Half the samples are whole
// degrees, so windows hold ties. Pct and MeanDeltaC must stay
// bit-identical to the scanning implementation's.
func TestCycleMeterMatchesNaiveScan(t *testing.T) {
	for _, tc := range []struct{ cores, window, ticks int }{
		{4, 50, 400}, {1, 2, 7}, {1, 2, 8}, {2, 3, 10}, {1, 5, 23}, {3, 7, 30}, {8, 100, 333},
	} {
		t.Run(fmt.Sprintf("cores%d_window%d_ticks%d", tc.cores, tc.window, tc.ticks), func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			m, err := NewCycleMeter(tc.cores, tc.window, 20)
			if err != nil {
				t.Fatal(err)
			}
			hist := make([][]float64, 0, tc.ticks)
			var samples, above int
			var sumAvg float64
			for s := 0; s < tc.ticks; s++ {
				temps := make([]float64, tc.cores)
				for c := range temps {
					temps[c] = 60 + 25*rng.Float64()
					if rng.Intn(2) == 0 {
						temps[c] = math.Floor(temps[c])
					}
				}
				hist = append(hist, temps)
				if err := m.Record(temps); err != nil {
					t.Fatal(err)
				}
				if s+1 > tc.window {
					// Naive reference: rescan the trailing window per
					// core, summing in core order exactly as Record does.
					avg := 0.0
					for c := 0; c < tc.cores; c++ {
						mx, mn := math.Inf(-1), math.Inf(1)
						for w := s - tc.window + 1; w <= s; w++ {
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
					avg /= float64(tc.cores)
					samples++
					sumAvg += avg
					if avg > 20 {
						above++
					}
				}
				wantPct, wantMean := 0.0, 0.0
				if samples > 0 {
					wantPct = 100 * float64(above) / float64(samples)
					wantMean = sumAvg / float64(samples)
				}
				if m.Pct() != wantPct || m.MeanDeltaC() != wantMean {
					t.Fatalf("after %d samples: Pct %g, MeanDeltaC %g; naive scan gives %g, %g",
						s+1, m.Pct(), m.MeanDeltaC(), wantPct, wantMean)
				}
			}
		})
	}
}

// TestCollectorCopyFromEveryPhase copies a collector with a 7-tick
// cycle window at every tick from 0 to 2W+1 — before the first sample,
// inside the first block, at its last position (j = W−1) and first
// position of the next (j = 0), and through the second block — then
// feeds source and copy the same samples: their summaries must be
// bitwise equal.
func TestCollectorCopyFromEveryPhase(t *testing.T) {
	const w = 7
	s := floorplan.MustBuild(floorplan.EXP3)
	cfg := CollectorConfig{CycleWindow: w}
	rng := rand.New(rand.NewSource(5))
	const total = 5 * w
	blocks := make([][]float64, total)
	cores := make([][]float64, total)
	for i := range blocks {
		blocks[i] = make([]float64, s.NumBlocks())
		for b := range blocks[i] {
			blocks[i][b] = 50 + 40*rng.Float64()
		}
		cores[i] = make([]float64, s.NumCores())
		for c := range cores[i] {
			cores[i][c] = blocks[i][s.BlockIndex(s.Core(c))]
		}
	}
	for at := 0; at <= 2*w+1; at++ {
		src, err := NewCollector(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		dst, err := NewCollector(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < at; i++ {
			if err := src.Record(blocks[i], cores[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := dst.CopyFrom(src); err != nil {
			t.Fatal(err)
		}
		for i := at; i < total; i++ {
			if err := src.Record(blocks[i], cores[i]); err != nil {
				t.Fatal(err)
			}
			if err := dst.Record(blocks[i], cores[i]); err != nil {
				t.Fatal(err)
			}
			if d := summaryDiff(dst.Summarize(), src.Summarize(), false); d != "" {
				t.Fatalf("copied after %d samples, at sample %d: %s", at, i+1, d)
			}
		}
	}
}

// TestGradientMeterLayerRanges checks the ordering the gradient meter
// relies on: every builtin stack lists its blocks layer by layer, so
// layer li is the index range ending at layerEnd[li]. A stack whose
// layers were reordered after it was finalized must be refused.
func TestGradientMeterLayerRanges(t *testing.T) {
	for _, e := range floorplan.ExtendedExperiments() {
		s := floorplan.MustBuild(e)
		g := NewGradientMeter(s, 15)
		start := 0
		for li, layer := range s.Layers {
			for i, b := range layer.Blocks {
				if bi := s.BlockIndex(b); bi != start+i || bi >= g.layerEnd[li] {
					t.Fatalf("%s layer %d block %d (%s) at index %d, want %d before %d", s.Name, li, i, b.Name, bi, start+i, g.layerEnd[li])
				}
			}
			start = g.layerEnd[li]
		}
		if start != s.NumBlocks() {
			t.Fatalf("%s: layer ranges end at %d of %d blocks", s.Name, start, s.NumBlocks())
		}
	}
	s := floorplan.MustBuild(floorplan.EXP1)
	s.Layers[0], s.Layers[1] = s.Layers[1], s.Layers[0]
	defer func() {
		if recover() == nil {
			t.Fatal("a stack whose layers disagree with Blocks() was accepted")
		}
	}()
	NewGradientMeter(s, 15)
}

// BenchmarkCollectorRecord times one tick of 16 EXP-3 collectors
// recorded one after another, as a lockstep batch of 16 lanes holds
// them, over a 300-tick trace (three cycle-window blocks). It reports
// allocations, which stay at 0 per op.
func BenchmarkCollectorRecord(b *testing.B) {
	const lanes, ticks = 16, 300
	s := floorplan.MustBuild(floorplan.EXP3)
	rng := rand.New(rand.NewSource(3))
	cols := make([]*Collector, lanes)
	for l := range cols {
		c, err := NewCollector(s, CollectorConfig{})
		if err != nil {
			b.Fatal(err)
		}
		cols[l] = c
	}
	blocks := make([][]float64, ticks)
	cores := make([][]float64, ticks)
	for i := range blocks {
		blocks[i] = make([]float64, s.NumBlocks())
		for k := range blocks[i] {
			blocks[i][k] = 50 + 40*rng.Float64()
		}
		cores[i] = make([]float64, s.NumCores())
		for c := range cores[i] {
			cores[i][c] = blocks[i][s.BlockIndex(s.Core(c))]
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % ticks
		for _, c := range cols {
			if err := c.Record(blocks[k], cores[k]); err != nil {
				b.Fatal(err)
			}
		}
	}
}
