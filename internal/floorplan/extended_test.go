package floorplan

import "testing"

// TestExtendedExperimentsBuild validates the sweep-extension stacks
// (EXP-5, EXP-6) alongside the paper's four: every configuration must
// build, pass structural validation, and carry the advertised core and
// layer counts.
func TestExtendedExperimentsBuild(t *testing.T) {
	wantCores := map[Experiment]int{EXP1: 8, EXP2: 8, EXP3: 16, EXP4: 16, EXP5: 16, EXP6: 24}
	wantLayers := map[Experiment]int{EXP1: 2, EXP2: 2, EXP3: 4, EXP4: 4, EXP5: 4, EXP6: 6}
	for _, e := range ExtendedExperiments() {
		s, err := Build(e)
		if err != nil {
			t.Fatalf("Build(%v): %v", e, err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%v: %v", e, err)
		}
		if s.NumCores() != wantCores[e] {
			t.Errorf("%v: %d cores, want %d", e, s.NumCores(), wantCores[e])
		}
		if s.NumLayers() != wantLayers[e] {
			t.Errorf("%v: %d layers, want %d", e, s.NumLayers(), wantLayers[e])
		}
	}
}

// TestEXP5FlipsLogicToSink pins EXP-5's defining property: its core
// layers sit closer to the heat sink than EXP-3's.
func TestEXP5FlipsLogicToSink(t *testing.T) {
	exp3, exp5 := MustBuild(EXP3), MustBuild(EXP5)
	dist := func(s *Stack) int {
		d := 0
		for id := 0; id < s.NumCores(); id++ {
			d += s.LayerDistanceFromSink(id)
		}
		return d
	}
	if d3, d5 := dist(exp3), dist(exp5); d5 >= d3 {
		t.Errorf("EXP-5 total core distance from sink %d, want below EXP-3's %d", d5, d3)
	}
}
