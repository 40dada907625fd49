package floorplan

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestExperimentJSON pins the wire format scenario specs use.
func TestExperimentJSON(t *testing.T) {
	for _, e := range ExtendedExperiments() {
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("marshal %v: %v", e, err)
		}
		if want := `"` + e.String() + `"`; string(b) != want {
			t.Errorf("marshal %v = %s, want %s", e, b, want)
		}
		var got Experiment
		if err := json.Unmarshal(b, &got); err != nil || got != e {
			t.Errorf("unmarshal %s: got %v err %v", b, got, err)
		}
	}
	var e Experiment
	if err := json.Unmarshal([]byte(`3`), &e); err != nil || e != EXP3 {
		t.Errorf("unmarshal bare number: got %v err %v", e, err)
	}
	if err := json.Unmarshal([]byte(`"exp2"`), &e); err != nil || e != EXP2 {
		t.Errorf("unmarshal lowercase: got %v err %v", e, err)
	}
	if err := json.Unmarshal([]byte(`"EXP-9"`), &e); err == nil {
		t.Error("unmarshal accepted an unknown experiment")
	}
	if _, err := json.Marshal(Experiment(0)); err == nil {
		t.Error("marshal accepted the zero experiment")
	}
}

func TestAllExperimentsBuildAndValidate(t *testing.T) {
	for _, e := range AllExperiments() {
		s, err := Build(e)
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%v: validation failed: %v", e, err)
		}
	}
}

func TestExperimentShape(t *testing.T) {
	cases := []struct {
		e      Experiment
		layers int
		cores  int
		l2s    int
	}{
		{EXP1, 2, 8, 4},
		{EXP2, 2, 8, 4},
		{EXP3, 4, 16, 8},
		{EXP4, 4, 16, 8},
	}
	for _, c := range cases {
		s := MustBuild(c.e)
		if s.NumLayers() != c.layers {
			t.Errorf("%v: layers = %d, want %d", c.e, s.NumLayers(), c.layers)
		}
		if s.NumCores() != c.cores {
			t.Errorf("%v: cores = %d, want %d", c.e, s.NumCores(), c.cores)
		}
		if got := len(s.L2s()); got != c.l2s {
			t.Errorf("%v: L2 banks = %d, want %d", c.e, got, c.l2s)
		}
	}
}

func TestTableIIAreas(t *testing.T) {
	s := MustBuild(EXP1)
	for _, core := range s.Cores() {
		if math.Abs(core.Area()-CoreAreaMM2) > 1e-6 {
			t.Errorf("core %s area = %.4f, want %.1f (Table II)", core.Name, core.Area(), CoreAreaMM2)
		}
	}
	for _, l2 := range s.L2s() {
		if math.Abs(l2.Area()-L2AreaMM2) > 1e-6 {
			t.Errorf("L2 %s area = %.4f, want %.1f (Table II)", l2.Name, l2.Area(), L2AreaMM2)
		}
	}
	for _, l := range s.Layers {
		total := 0.0
		for _, b := range l.Blocks {
			total += b.Area()
		}
		if math.Abs(total-LayerAreaMM2) > 1e-6 {
			t.Errorf("layer %d total area = %.4f, want %.1f (Table II)", l.Index, total, LayerAreaMM2)
		}
	}
}

func TestEXP1SeparatesLogicAndMemory(t *testing.T) {
	// EXP1 bonds the memory layer to the sink side; the logic layer sits
	// on the poorly-cooled far side (Section IV-A orientation).
	s := MustBuild(EXP1)
	for _, b := range s.Layers[0].Blocks {
		if b.IsCore() {
			t.Errorf("EXP1 layer 0 (sink side) should hold no cores, found %s", b.Name)
		}
	}
	for _, b := range s.Layers[1].Blocks {
		if b.Kind == KindL2 {
			t.Errorf("EXP1 layer 1 should hold no L2 banks, found %s", b.Name)
		}
	}
}

func TestEXP2MixesLogicAndMemoryPerLayer(t *testing.T) {
	s := MustBuild(EXP2)
	for li, l := range s.Layers {
		cores, l2s := 0, 0
		for _, b := range l.Blocks {
			switch b.Kind {
			case KindCore:
				cores++
			case KindL2:
				l2s++
			}
		}
		if cores != 4 || l2s != 2 {
			t.Errorf("EXP2 layer %d: %d cores %d L2s, want 4 and 2", li, cores, l2s)
		}
	}
}

func TestEXP3AlternatesCoreAndMemoryLayers(t *testing.T) {
	s := MustBuild(EXP3)
	wantCores := []int{0, 8, 0, 8}
	for li, l := range s.Layers {
		if got := len(l.Cores()); got != wantCores[li] {
			t.Errorf("EXP3 layer %d has %d cores, want %d", li, got, wantCores[li])
		}
	}
}

func TestCoreIDsAreDenseAndUnique(t *testing.T) {
	for _, e := range ExtendedExperiments() {
		s := MustBuild(e)
		seen := make(map[int]bool)
		for _, c := range s.Cores() {
			if c == nil {
				t.Fatalf("%v: nil core entry", e)
			}
			if seen[c.CoreID] {
				t.Fatalf("%v: duplicate core id %d", e, c.CoreID)
			}
			seen[c.CoreID] = true
		}
		spec, err := SpecForExperiment(e)
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < spec.NumCores(); id++ {
			if !seen[id] {
				t.Errorf("%v: missing core id %d", e, id)
			}
			if s.Core(id).CoreID != id {
				t.Errorf("%v: Core(%d) returned block with id %d", e, id, s.Core(id).CoreID)
			}
		}
	}
}

func TestLayerDistanceFromSink(t *testing.T) {
	s := MustBuild(EXP3)
	if d := s.LayerDistanceFromSink(0); d != 1 {
		t.Errorf("core0 distance = %d, want 1 (first core layer)", d)
	}
	if d := s.LayerDistanceFromSink(8); d != 3 {
		t.Errorf("core8 distance = %d, want 3 (second core layer)", d)
	}
}

func TestHotSusceptibilityOrdering(t *testing.T) {
	// In a 4-tier stack, a core on the top core layer must have strictly
	// higher susceptibility than the same lateral position near the sink.
	s := MustBuild(EXP3)
	low := s.HotSusceptibility(0)  // layer 0
	high := s.HotSusceptibility(8) // layer 2, same lateral slot
	if high <= low {
		t.Errorf("susceptibility(layer2 core)=%.3f should exceed susceptibility(layer0 core)=%.3f", high, low)
	}
	for id := 0; id < s.NumCores(); id++ {
		v := s.HotSusceptibility(id)
		if v <= 0 || v > 1 {
			t.Errorf("susceptibility(%d) = %g out of (0,1]", id, v)
		}
	}
}

func TestCoreCentralityBounds(t *testing.T) {
	s := MustBuild(EXP2)
	for id := 0; id < s.NumCores(); id++ {
		c := s.CoreCentrality(id)
		if c < 0 || c > 1 {
			t.Errorf("centrality(%d) = %g out of [0,1]", id, c)
		}
	}
	// Inner cores (columns 1,2) are more central than edge cores (0,3).
	if s.CoreCentrality(1) <= s.CoreCentrality(0) {
		t.Error("inner core should be more central than corner core")
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	s := MustBuild(EXP1)
	// Force an overlap and make sure Validate notices.
	bad := *s.Layers[0].Blocks[0]
	bad.Name = "intruder"
	s.Layers[0].Blocks = append(s.Layers[0].Blocks, &bad)
	if err := s.Validate(); err == nil {
		t.Error("Validate accepted overlapping blocks")
	}
}

func TestValidateCatchesWrongLayerIndex(t *testing.T) {
	s := MustBuild(EXP1)
	s.Layers[0].Blocks[0].Layer = 1
	if err := s.Validate(); err == nil {
		t.Error("Validate accepted block with wrong layer index")
	}
}

func TestParseExperiment(t *testing.T) {
	for _, ok := range []string{"1", "EXP-2", "exp3", "EXP4", "5", "EXP-6"} {
		if _, err := ParseExperiment(ok); err != nil {
			t.Errorf("ParseExperiment(%q) failed: %v", ok, err)
		}
	}
	if _, err := ParseExperiment("7"); err == nil {
		t.Error("ParseExperiment accepted invalid input")
	}
}

func TestRenderStackMentionsEveryBlock(t *testing.T) {
	s := MustBuild(EXP2)
	out := RenderStack(s, 46, 12)
	for _, b := range s.Blocks() {
		if !strings.Contains(out, b.Name) {
			t.Errorf("rendering is missing block %q", b.Name)
		}
	}
	if !strings.Contains(out, "heat sink") {
		t.Error("rendering should mention the heat sink")
	}
}

func TestBuildWithResistivityValidation(t *testing.T) {
	if _, err := BuildWithResistivity(EXP1, 0); err == nil {
		t.Error("zero resistivity accepted")
	}
	if _, err := BuildWithResistivity(Experiment(9), 0.23); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestBlockStringAndKindString(t *testing.T) {
	s := MustBuild(EXP1)
	b := s.Core(0)
	if !strings.Contains(b.String(), "core0") {
		t.Errorf("Block.String() = %q missing name", b.String())
	}
	if KindCrossbar.String() != "xbar" || KindL2.String() != "l2" {
		t.Error("BlockKind.String() unexpected")
	}
}
