package thermal

import (
	"strings"
	"testing"

	"repro/internal/floorplan"
)

func steadyEXP1(t *testing.T) (*floorplan.Stack, *Model, []float64) {
	t.Helper()
	s := floorplan.MustBuild(floorplan.EXP1)
	m, err := NewBlockModel(s, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	pw := make([]float64, s.NumBlocks())
	for _, c := range s.Cores() {
		pw[s.BlockIndex(c)] = 3
	}
	temps, err := m.SteadyState(pw)
	if err != nil {
		t.Fatal(err)
	}
	return s, m, m.BlockTemps(temps)
}

func TestRenderHeatmap(t *testing.T) {
	s, _, blockT := steadyEXP1(t)
	out, err := RenderHeatmap(s, blockT)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Layer 0") || !strings.Contains(out, "Layer 1") {
		t.Error("heatmap missing layers")
	}
	if !strings.Contains(out, "heat sink side") {
		t.Error("heatmap should flag the sink-side layer")
	}
	// The hot (core) layer must use denser glyphs than the cool layer:
	// the hottest glyph should appear somewhere.
	if !strings.ContainsAny(out, "%@") {
		t.Error("no hot glyphs in a powered heatmap")
	}
}

func TestRenderHeatmapValidation(t *testing.T) {
	s, _, _ := steadyEXP1(t)
	if _, err := RenderHeatmap(s, []float64{1}); err == nil {
		t.Error("short vector accepted")
	}
}

func TestHotBlocks(t *testing.T) {
	s, _, blockT := steadyEXP1(t)
	all, err := HotBlocks(s, blockT, 0) // everything above 0 °C
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != s.NumBlocks() {
		t.Errorf("got %d hot blocks, want all %d", len(all), s.NumBlocks())
	}
	// Sorted hottest first.
	for i := 1; i < len(all); i++ {
		if all[i] > all[i-1] && strings.Compare(all[i], all[i-1]) == 0 {
			t.Error("not sorted")
		}
	}
	none, _ := HotBlocks(s, blockT, 1000)
	if len(none) != 0 {
		t.Error("nothing should exceed 1000 °C")
	}
	if _, err := HotBlocks(s, []float64{1}, 0); err == nil {
		t.Error("short vector accepted")
	}
}
