package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/policy"
	"repro/internal/workload"
)

// limitSpec is a stack at the server's layer gate with every bound
// StackSpec.Validate checks at its limit: thicknesses 10 mm,
// resistivities 1000 m·K/W, frequency and power scales 10, and coolant
// HTCs of 1e7 W/(m²·K) at 1000 °C, constant and tabulated.
func limitSpec() floorplan.StackSpec {
	s := floorplan.StackSpec{
		Name:                     "at-every-limit",
		InterlayerResistivityMKW: 1000,
		InterlayerThicknessMM:    10,
	}
	templates := []string{"cores", "memory", "mixed"}
	for i := range floorplan.MaxSpecLayers {
		s.Layers = append(s.Layers, floorplan.LayerSpec{Template: templates[i%3], ThicknessMM: 10, FreqScale: 10, PowerScale: 10})
	}
	for i := range floorplan.MaxSpecLayers - 1 {
		ifc := floorplan.InterfaceSpec{ResistivityMKW: 1000, ThicknessMM: 10}
		switch i % 3 {
		case 1:
			ifc.Coolant = &floorplan.CoolantSpec{HTCWm2K: 1e7, DesignTempC: 1000}
		case 2:
			ifc.Coolant = &floorplan.CoolantSpec{HTCTable: [][2]float64{{0, 1}, {1000, 1e7}}, DesignTempC: 1000}
		}
		s.Interfaces = append(s.Interfaces, ifc)
	}
	return s
}

// blockGateSpec is a stack at both size gates: 16 layers of 256
// explicit blocks in a 16×16 tiling, each layer with one core per row.
func blockGateSpec() floorplan.StackSpec {
	const side = 16
	w, h := floorplan.ChipWMM/side, floorplan.ChipHMM/side
	var s floorplan.StackSpec
	for l := range floorplan.MaxSpecLayers {
		var ls floorplan.LayerSpec
		for r := range side {
			for c := range side {
				kind := "other"
				switch c {
				case 0:
					kind = "core"
				case 1:
					kind = "l2"
				case 2:
					kind = "xbar"
				}
				ls.Blocks = append(ls.Blocks, floorplan.BlockSpec{
					Name: fmt.Sprintf("b%d.%d.%d", l, r, c), Kind: kind,
					X: float64(c) * w, Y: float64(r) * h, W: w, H: h,
				})
			}
		}
		s.Layers = append(s.Layers, ls)
	}
	return s
}

// finiteAll reports whether every value of xs is finite.
func finiteAll(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// runSpecFinite runs data, if the parser accepts it and the server's
// size gates admit it, as a short block-mode job (DVFS_TT with the
// paper's DPM on a Web-high trace). Rejecting the spec, building the
// stack, NewEngine and each Step may fail with an error, which
// runSpecFinite returns: it returns nil only for a run that reached its
// last tick. A run that starts must keep every block's power and
// temperature finite from the idle fixed point to its last tick, and
// end with finite energy, or the test fails.
func runSpecFinite(t *testing.T, data []byte) error {
	t.Helper()
	spec, err := floorplan.ParseStackSpec(data)
	if err != nil {
		return err
	}
	if spec.NumLayers() > floorplan.MaxSpecLayers || spec.NumBlocks() > floorplan.MaxSpecBlocks {
		return fmt.Errorf("%d layers, %d blocks: above the size gates", spec.NumLayers(), spec.NumBlocks())
	}
	stack, err := spec.Build()
	if err != nil {
		return err
	}
	bench, err := workload.ByName("Web-high")
	if err != nil {
		t.Fatal(err)
	}
	const durationS = 2
	jobs, err := workload.Generate(workload.GenConfig{Bench: bench, NumCores: stack.NumCores(), DurationS: durationS, Seed: 1})
	if err != nil {
		return err
	}
	e, err := NewEngine(Config{StackSpec: spec, Policy: policy.NewDVFSTT(), DPM: policy.DefaultDPM(), Jobs: jobs, DurationS: durationS})
	if err != nil {
		return err
	}
	for {
		if !finiteAll(e.blockPower) || !finiteAll(e.blockTemps) {
			t.Fatalf("%s after %d ticks: non-finite block power %v or temperature %v", spec.Name, e.tickIdx, e.blockPower, e.blockTemps)
		}
		if err := e.Step(); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("tick %d: %w", e.tickIdx, err)
		}
	}
	res, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !finiteAll([]float64{res.EnergyJ, res.AvgPowerW}) {
		t.Fatalf("%s: non-finite energy %g J (average %g W)", spec.Name, res.EnergyJ, res.AvgPowerW)
	}
	return nil
}

// specSeed is one named fuzz seed.
type specSeed struct {
	name string
	data []byte
}

// specSeeds returns the fuzz seeds in a fixed order: the scenario
// library, then limitSpec.
func specSeeds(tb testing.TB) []specSeed {
	tb.Helper()
	files, err := filepath.Glob("../../scenarios/*.json")
	if err != nil {
		tb.Fatal(err)
	}
	if len(files) == 0 {
		tb.Fatal("scenario library not found; fuzz seeds depend on it")
	}
	var seeds []specSeed
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, specSeed{filepath.Base(path), data})
	}
	data, err := json.Marshal(limitSpec())
	if err != nil {
		tb.Fatal(err)
	}
	return append(seeds, specSeed{"limitSpec", data})
}

// FuzzSpecRunsFinite holds every spec the parser accepts and the
// server's size gates admit to runSpecFinite; an input that fails with
// an error passes. TestSpecSeedsRunFinite shows that every seed runs.
func FuzzSpecRunsFinite(f *testing.F) {
	for _, s := range specSeeds(f) {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runSpecFinite(t, data) })
}

// TestSpecSeedsRunFinite requires each of FuzzSpecRunsFinite's seeds
// to run to its last tick, finite throughout: a seed that failed with
// an error would test nothing.
func TestSpecSeedsRunFinite(t *testing.T) {
	for _, s := range specSeeds(t) {
		if err := runSpecFinite(t, s.data); err != nil {
			t.Errorf("%s did not run to its last tick: %v", s.name, err)
		}
	}
}

// TestSpecAtSizeGatesRunsFinite requires blockGateSpec to run to its
// last tick, finite throughout. It is a test, not a fuzz seed: each run
// of its 4,096 blocks takes about two seconds, and minimizing mutations
// of it would stall the fuzzer.
func TestSpecAtSizeGatesRunsFinite(t *testing.T) {
	data, err := json.Marshal(blockGateSpec())
	if err != nil {
		t.Fatal(err)
	}
	if spec, err := floorplan.ParseStackSpec(data); err != nil || spec.NumLayers() != floorplan.MaxSpecLayers || spec.NumBlocks() != floorplan.MaxSpecBlocks {
		t.Fatalf("blockGateSpec is not at both gates: %v", err)
	}
	if err := runSpecFinite(t, data); err != nil {
		t.Fatalf("blockGateSpec did not run to its last tick: %v", err)
	}
}
