// Physics-level checks of the declarative spec path that need the
// thermal package (which imports floorplan, hence the external test
// package).
package floorplan_test

import (
	"math"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/thermal"
)

// TestSpecTSVModelCrossCheck pins the resistivity a spec derives from
// its TSV count to exact bits, taken from the spec path before it
// shared TSVModel's formula: the Figure 2 model must not move a
// TSV-based stack by a single ulp.
func TestSpecTSVModelCrossCheck(t *testing.T) {
	for _, c := range []struct {
		vias int
		bits uint64
	}{
		{1, 0x3fcfff72373fda10},
		{64, 0x3fcfdcb44c52b91e},
		{512, 0x3fceede6af6b5209},
		{1024, 0x3fcded8cfb505faa},
		{4096, 0x3fc90f54f597407c},
		{1 << 15, 0x3fb3e7469868ca9f},
		{1 << 22, 0x3f647ae147ae147b},
		{1 << 30, 0x3f647ae147ae147b},
	} {
		spec := floorplan.StackSpec{
			TSVsPerInterface: c.vias,
			Layers:           []floorplan.LayerSpec{{Template: "memory"}, {Template: "cores"}},
		}
		st, err := spec.Build()
		if err != nil {
			t.Fatalf("%d vias: %v", c.vias, err)
		}
		if got := math.Float64bits(st.InterlayerResistivityMKW); got != c.bits {
			t.Errorf("%d vias: spec derives %v m·K/W (bits %#016x), want %v (bits %#016x)",
				c.vias, st.InterlayerResistivityMKW, got, math.Float64frombits(c.bits), c.bits)
		}
		if want := floorplan.NewTSVModel().JointResistivity(c.vias); st.InterlayerResistivityMKW != want {
			t.Errorf("%d vias: spec derives %v m·K/W, TSVModel says %v", c.vias, st.InterlayerResistivityMKW, want)
		}
	}
}

// TestMicrofluidicCoolingLowersTemps verifies the linearized coolant
// model does what interlayer liquid cooling must: strictly lower every
// steady-state temperature versus the identical stack without the
// coolant, with the hottest nodes benefiting, while the system stays
// solvable (SPD) in both block and grid mode.
func TestMicrofluidicCoolingLowersTemps(t *testing.T) {
	layers := []floorplan.LayerSpec{
		{Template: "memory"}, {Template: "cores"}, {Template: "memory"}, {Template: "cores"},
	}
	dry := floorplan.StackSpec{Name: "dry", Layers: layers}
	wet := floorplan.StackSpec{
		Name:   "wet",
		Layers: layers,
		Interfaces: []floorplan.InterfaceSpec{
			{},
			{Coolant: &floorplan.CoolantSpec{HTCTable: [][2]float64{{40, 8000}, {60, 9500}, {80, 11000}}}},
			{},
		},
	}
	solve := func(spec floorplan.StackSpec) []float64 {
		t.Helper()
		st, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		m, err := thermal.NewBlockModel(st, thermal.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		pw := make([]float64, st.NumBlocks())
		for _, b := range st.Cores() {
			pw[st.BlockIndex(b)] = 3 // W, a busy core
		}
		temps, err := m.SteadyState(pw)
		if err != nil {
			t.Fatal(err)
		}
		return m.BlockTemps(temps)
	}
	dryT, wetT := solve(dry), solve(wet)
	if len(dryT) != len(wetT) {
		t.Fatalf("block counts diverged: %d vs %d", len(dryT), len(wetT))
	}
	maxDry, maxWet := dryT[0], wetT[0]
	for i := range dryT {
		if wetT[i] >= dryT[i] {
			t.Errorf("block %d: coolant did not lower temperature (%.3f → %.3f °C)", i, dryT[i], wetT[i])
		}
		if dryT[i] > maxDry {
			maxDry = dryT[i]
		}
		if wetT[i] > maxWet {
			maxWet = wetT[i]
		}
	}
	if maxWet >= maxDry-1 {
		t.Errorf("peak temperature barely moved: %.2f °C dry vs %.2f °C cooled", maxDry, maxWet)
	}

	// Grid mode must stamp the same coolant and stay solvable too.
	st, err := wet.Build()
	if err != nil {
		t.Fatal(err)
	}
	gm, err := thermal.NewGridModel(st, thermal.DefaultParams(), 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	pw := make([]float64, st.NumBlocks())
	for _, b := range st.Cores() {
		pw[st.BlockIndex(b)] = 3
	}
	if _, err := gm.SteadyState(pw); err != nil {
		t.Fatalf("grid model with coolant not solvable: %v", err)
	}
}
