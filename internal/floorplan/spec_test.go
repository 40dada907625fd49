package floorplan

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// oldBuild reproduces the former hardcoded experiment builders verbatim
// (the exact layer calls and first-ID arguments the pre-spec code
// shipped), so the golden test below pins that the declarative path is
// byte-identical to what it replaced.
func oldBuild(t *testing.T, e Experiment, jr float64) *Stack {
	t.Helper()
	s := &Stack{
		Name:                     e.String(),
		InterlayerResistivityMKW: jr,
		InterlayerThicknessMM:    InterlayerThicknessMM,
	}
	switch e {
	case EXP1:
		s.Layers = []*Layer{memoryLayer(0, 0), coreLayer(1, 0)}
	case EXP2:
		s.Layers = []*Layer{mixedLayer(0, 0, 0), mixedLayer(1, 4, 2)}
	case EXP3:
		s.Layers = []*Layer{memoryLayer(0, 0), coreLayer(1, 0), memoryLayer(2, 4), coreLayer(3, 8)}
	case EXP4:
		s.Layers = []*Layer{mixedLayer(0, 0, 0), mixedLayer(1, 4, 2), mixedLayer(2, 8, 4), mixedLayer(3, 12, 6)}
	case EXP5:
		s.Layers = []*Layer{coreLayer(0, 0), memoryLayer(1, 0), coreLayer(2, 8), memoryLayer(3, 4)}
	case EXP6:
		s.Layers = []*Layer{memoryLayer(0, 0), coreLayer(1, 0), memoryLayer(2, 4), coreLayer(3, 8), memoryLayer(4, 8), coreLayer(5, 16)}
	default:
		t.Fatalf("unknown experiment %d", int(e))
	}
	if err := s.finish(); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecExperimentGolden is the refactor's byte-identity pin: for
// every builtin experiment and several joint resistivities, the
// declarative SpecForExperiment path must produce a stack deeply equal
// — every block rectangle, ID, thickness, and scale — to the former
// hardcoded builder.
func TestSpecExperimentGolden(t *testing.T) {
	for _, e := range ExtendedExperiments() {
		for _, jr := range []float64{0.23, 0.0667, 1.4} {
			got, err := BuildWithResistivity(e, jr)
			if err != nil {
				t.Fatalf("%v jr=%g: %v", e, jr, err)
			}
			want := oldBuild(t, e, jr)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v jr=%g: spec-built stack differs from hardcoded builder output", e, jr)
			}
		}
	}
}

// TestSpecPreExpansionCounts verifies NumLayers/NumBlocks/NumCores (the
// server's pre-expansion size gates) agree with the built stack for
// every builtin experiment and for explicit-block layers.
func TestSpecPreExpansionCounts(t *testing.T) {
	for _, e := range ExtendedExperiments() {
		spec, err := SpecForExperiment(e)
		if err != nil {
			t.Fatal(err)
		}
		st, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		blocks := 0
		for _, l := range st.Layers {
			blocks += len(l.Blocks)
		}
		if spec.NumLayers() != len(st.Layers) || spec.NumBlocks() != blocks || spec.NumCores() != st.NumCores() {
			t.Errorf("%v: pre-expansion counts %d/%d/%d, built %d/%d/%d",
				e, spec.NumLayers(), spec.NumBlocks(), spec.NumCores(), len(st.Layers), blocks, st.NumCores())
		}
	}
	explicit := StackSpec{Layers: []LayerSpec{{Blocks: []BlockSpec{
		{Name: "c0", Kind: "core", X: 0, Y: 0, W: 11.5, H: 4},
		{Name: "l0", Kind: "l2", X: 0, Y: 4, W: 11.5, H: 6},
	}}}}
	if explicit.NumBlocks() != 2 || explicit.NumCores() != 1 {
		t.Errorf("explicit layer counts %d blocks / %d cores, want 2/1", explicit.NumBlocks(), explicit.NumCores())
	}
}

// TestParseStackSpecStrict pins the parser's strictness: unknown fields
// and anything but whitespace after the document are rejected, valid
// documents round-trip.
func TestParseStackSpecStrict(t *testing.T) {
	const minimal = `{"layers": [{"template": "cores"}]}`
	if _, err := ParseStackSpec([]byte(minimal)); err != nil {
		t.Fatalf("minimal valid spec rejected: %v", err)
	}
	if _, err := ParseStackSpec([]byte(minimal + " \n\t\r\n")); err != nil {
		t.Errorf("spec with trailing whitespace rejected: %v", err)
	}
	for _, tail := range []string{"]", "}", " garbage"} {
		if _, err := ParseStackSpec([]byte(minimal + tail)); err == nil || !strings.Contains(err.Error(), "trailing data") {
			t.Errorf("spec with trailing %q: err %v, want trailing data", tail, err)
		}
	}
	if _, err := ParseStackSpec([]byte(`{"layrs": [{"template": "cores"}]}`)); err == nil {
		t.Error("unknown top-level field accepted")
	}
	if _, err := ParseStackSpec([]byte(`{"layers": [{"templte": "cores"}]}`)); err == nil {
		t.Error("unknown layer field accepted")
	}
	if _, err := ParseStackSpec([]byte(`{"layers": [{"template": "cores"}]} {"layers": []}`)); err == nil {
		t.Error("trailing JSON document accepted")
	}
	if _, err := ParseStackSpec([]byte(`not json`)); err == nil {
		t.Error("non-JSON accepted")
	}
}

// TestSpecValidateErrors exercises the declarative invariants one by
// one; each bad spec must fail with a message naming the problem.
func TestSpecValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		spec StackSpec
		want string
	}{
		{"no layers", StackSpec{}, "no layers"},
		{"template and blocks", StackSpec{Layers: []LayerSpec{{Template: "cores", Blocks: []BlockSpec{{Name: "b", Kind: "core", W: 1, H: 1}}}}}, "both template"},
		{"unknown template", StackSpec{Layers: []LayerSpec{{Template: "gpu"}}}, "unknown template"},
		{"empty layer", StackSpec{Layers: []LayerSpec{{}}}, "needs a template or explicit blocks"},
		{"bad kind", StackSpec{Layers: []LayerSpec{{Blocks: []BlockSpec{{Name: "b", Kind: "dsp", W: 1, H: 1}}}}}, "unknown block kind"},
		{"unnamed block", StackSpec{Layers: []LayerSpec{{Blocks: []BlockSpec{{Kind: "core", W: 1, H: 1}}}}}, "no name"},
		{"zero extent", StackSpec{Layers: []LayerSpec{{Blocks: []BlockSpec{{Name: "b", Kind: "core", W: 0, H: 1}}}}}, "non-positive extent"},
		{"negative resistivity", StackSpec{InterlayerResistivityMKW: -1, Layers: []LayerSpec{{Template: "cores"}}}, "negative interlayer resistivity"},
		{"negative scale", StackSpec{Layers: []LayerSpec{{Template: "cores", FreqScale: -0.5}}}, "negative thickness or scale"},
		{"interface count", StackSpec{Layers: []LayerSpec{{Template: "memory"}, {Template: "cores"}}, Interfaces: []InterfaceSpec{{}, {}}}, "interfaces for"},
		{"coolant neither", StackSpec{Layers: []LayerSpec{{Template: "memory"}, {Template: "cores"}}, Interfaces: []InterfaceSpec{{Coolant: &CoolantSpec{}}}}, "needs htc_w_m2k or htc_table"},
		{"coolant both", StackSpec{Layers: []LayerSpec{{Template: "memory"}, {Template: "cores"}}, Interfaces: []InterfaceSpec{{Coolant: &CoolantSpec{HTCWm2K: 100, HTCTable: [][2]float64{{40, 100}}}}}}, "not both"},
		{"coolant table order", StackSpec{Layers: []LayerSpec{{Template: "memory"}, {Template: "cores"}}, Interfaces: []InterfaceSpec{{Coolant: &CoolantSpec{HTCTable: [][2]float64{{60, 100}, {40, 200}}}}}}, "strictly increasing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if err == nil {
				t.Fatal("bad spec validated")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestSpecUpperBounds pins the upper bound on every physics field:
// ParseStackSpec refuses a value above it with an error naming the
// field, and accepts a spec with every field at its limit.
func TestSpecUpperBounds(t *testing.T) {
	const ifc = `{"layers":[{"template":"memory"},{"template":"cores"}],"interfaces":[%s]}`
	cases := []struct {
		doc, field string
	}{
		{`{"layers":[{"template":"memory"},{"template":"cores","power_scale":1e308}]}`, "power_scale"},
		{`{"layers":[{"template":"cores","thickness_mm":1e300}]}`, "thickness_mm"},
		{`{"layers":[{"template":"cores","freq_scale":10.5}]}`, "freq_scale"},
		{`{"interlayer_resistivity_mkw":1e4,"layers":[{"template":"cores"}]}`, "interlayer_resistivity_mkw"},
		{`{"interlayer_thickness_mm":11,"layers":[{"template":"cores"}]}`, "interlayer_thickness_mm"},
		{fmt.Sprintf(ifc, `{"resistivity_mkw":1001}`), "resistivity_mkw"},
		{fmt.Sprintf(ifc, `{"thickness_mm":1e9}`), "thickness_mm"},
		{fmt.Sprintf(ifc, `{"coolant":{"htc_w_m2k":2e7}}`), "htc_w_m2k"},
		{fmt.Sprintf(ifc, `{"coolant":{"htc_w_m2k":1e4,"design_temp_c":1e6}}`), "design_temp_c"},
		{fmt.Sprintf(ifc, `{"coolant":{"htc_table":[[40,8000],[1e5,9000]]}}`), "htc_table temperature"},
		{fmt.Sprintf(ifc, `{"coolant":{"htc_table":[[40,8000],[80,1e300]]}}`), "htc_table htc"},
	}
	for _, tc := range cases {
		_, err := ParseStackSpec([]byte(tc.doc))
		if err == nil || !strings.Contains(err.Error(), tc.field+" ") {
			t.Errorf("%s: error %v, want one naming %s", tc.doc, err, tc.field)
		}
	}

	atLimit := `{"interlayer_resistivity_mkw":1000,"interlayer_thickness_mm":10,` +
		`"layers":[{"template":"memory","thickness_mm":10},{"template":"cores","freq_scale":10,"power_scale":10},{"template":"cores"}],` +
		`"interfaces":[{"resistivity_mkw":1000,"thickness_mm":10},{"coolant":{"htc_table":[[40,8000],[1000,1e7]],"design_temp_c":1000}}]}`
	spec, err := ParseStackSpec([]byte(atLimit))
	if err != nil {
		t.Fatalf("spec at every limit refused: %v", err)
	}
	if _, err := spec.Build(); err != nil {
		t.Fatalf("spec at every limit does not build: %v", err)
	}
	nan := StackSpec{Layers: []LayerSpec{{Template: "cores", PowerScale: math.NaN()}}}
	if err := nan.Validate(); err == nil || !strings.Contains(err.Error(), "power_scale") {
		t.Errorf("NaN power_scale: error %v, want one naming power_scale", err)
	}
}

// TestExplicitBlockLayer pins ID assignment and scale semantics for
// explicit layers: document order, carry-over counters across layers,
// and FreqScale/PowerScale defaulting to 1 unless the layer sets them.
func TestExplicitBlockLayer(t *testing.T) {
	spec := StackSpec{
		Name: "explicit-test",
		Layers: []LayerSpec{
			{Template: "cores"}, // cores 0..7
			{
				FreqScale:  0.7,
				PowerScale: 0.45,
				Blocks: []BlockSpec{
					{Name: "bigcache", Kind: "l2", X: 0, Y: 0, W: 11.5, H: 5},
					{Name: "c_a", Kind: "core", X: 0, Y: 5, W: 5.75, H: 5},
					{Name: "c_b", Kind: "core", X: 5.75, Y: 5, W: 5.75, H: 5},
				},
			},
		},
	}
	st, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if st.NumCores() != 10 {
		t.Fatalf("NumCores = %d, want 10", st.NumCores())
	}
	l1 := st.Layers[1]
	// The cores template contributes no L2 banks, so the explicit bank
	// is the stack's first.
	if got := l1.Blocks[0].L2ID; got != 0 {
		t.Errorf("first explicit L2 ID = %d, want 0", got)
	}
	if got := l1.Blocks[1].CoreID; got != 8 {
		t.Errorf("first explicit core ID = %d, want 8 (after the 8 template cores)", got)
	}
	if got := l1.Blocks[2].CoreID; got != 9 {
		t.Errorf("second explicit core ID = %d, want 9", got)
	}
	for _, b := range st.Layers[0].Blocks {
		if b.IsCore() && (b.FreqScale != 1 || b.PowerScale != 1) {
			t.Errorf("unscaled layer core %q has scales %g/%g, want 1/1", b.Name, b.FreqScale, b.PowerScale)
		}
	}
	for _, b := range l1.Blocks {
		if b.IsCore() && (b.FreqScale != 0.7 || b.PowerScale != 0.45) {
			t.Errorf("scaled layer core %q has scales %g/%g, want 0.7/0.45", b.Name, b.FreqScale, b.PowerScale)
		}
	}
}

// TestJointResistivityFromTSVs pins the Figure 2 model boundaries that
// TSV-derived spec resistivities rest on: no vias → base material, the
// paper's 1024 vias ≈ 0.23, saturation at full copper coverage, and
// monotonic decrease in between.
func TestJointResistivityFromTSVs(t *testing.T) {
	if got := NewTSVModel().JointResistivity(0); got != 0.25 {
		t.Errorf("0 vias: %g, want 0.25", got)
	}
	if got := NewTSVModel().JointResistivity(1024); math.Abs(got-0.23) > 0.005 {
		t.Errorf("1024 vias: %g, want ≈0.23 (paper Section IV-C)", got)
	}
	if got := NewTSVModel().JointResistivity(1 << 30); got != 0.0025 {
		t.Errorf("saturated vias: %g, want copper 0.0025", got)
	}
	prev := NewTSVModel().JointResistivity(1)
	for _, n := range []int{64, 512, 4096, 1 << 15, 1 << 20} {
		cur := NewTSVModel().JointResistivity(n)
		if cur >= prev {
			t.Errorf("resistivity not strictly decreasing at %d vias: %g >= %g", n, cur, prev)
		}
		prev = cur
	}
}

// TestSpecHashIdentity pins hash semantics: deterministic, sensitive to
// any content change, and insensitive to nothing.
func TestSpecHashIdentity(t *testing.T) {
	a := StackSpec{Name: "h", Layers: []LayerSpec{{Template: "cores"}}}
	b := StackSpec{Name: "h", Layers: []LayerSpec{{Template: "cores"}}}
	if a.Hash() != b.Hash() {
		t.Error("identical specs hash differently")
	}
	if len(a.Hash()) != 12 {
		t.Errorf("hash length %d, want 12 hex chars", len(a.Hash()))
	}
	c := b
	c.Layers = []LayerSpec{{Template: "cores", FreqScale: 0.99}}
	if a.Hash() == c.Hash() {
		t.Error("content change did not change the hash")
	}
}

// TestSpecRegistry pins registration semantics: same name + same
// content is a no-op, conflicting content is refused (a silent rebind
// would alias job keys), and lookup returns what was registered.
func TestSpecRegistry(t *testing.T) {
	spec := StackSpec{Name: "registry-test-stack", Layers: []LayerSpec{{Template: "cores"}}}
	if err := RegisterStackSpec(spec); err != nil {
		t.Fatal(err)
	}
	if err := RegisterStackSpec(spec); err != nil {
		t.Errorf("re-registering identical content: %v", err)
	}
	conflict := spec
	conflict.Layers = []LayerSpec{{Template: "memory"}, {Template: "cores"}}
	if err := RegisterStackSpec(conflict); err == nil {
		t.Error("conflicting re-registration accepted")
	}
	got, ok := LookupStackSpec("registry-test-stack")
	if !ok || got.Hash() != spec.Hash() {
		t.Error("lookup did not return the registered spec")
	}
	if _, ok := LookupStackSpec("no-such-stack"); ok {
		t.Error("lookup invented a spec")
	}
	if err := RegisterStackSpec(StackSpec{Layers: []LayerSpec{{Template: "cores"}}}); err == nil {
		t.Error("nameless spec registered")
	}
	found := false
	for _, n := range RegisteredStackSpecs() {
		if n == "registry-test-stack" {
			found = true
		}
	}
	if !found {
		t.Error("registered name missing from RegisteredStackSpecs")
	}
}

// TestCoolantEffectiveHTC pins the build-time linearization: constant
// pass-through, midpoint interpolation, clamping outside the table, and
// the 60 °C default design temperature.
func TestCoolantEffectiveHTC(t *testing.T) {
	if got := (&CoolantSpec{HTCWm2K: 5000}).effectiveHTC(); got != 5000 {
		t.Errorf("constant HTC: %g, want 5000", got)
	}
	tab := [][2]float64{{40, 8000}, {80, 12000}}
	if got := (&CoolantSpec{HTCTable: tab}).effectiveHTC(); got != 10000 {
		t.Errorf("default 60 °C midpoint: %g, want 10000", got)
	}
	if got := (&CoolantSpec{HTCTable: tab, DesignTempC: 20}).effectiveHTC(); got != 8000 {
		t.Errorf("below-table clamp: %g, want 8000", got)
	}
	if got := (&CoolantSpec{HTCTable: tab, DesignTempC: 95}).effectiveHTC(); got != 12000 {
		t.Errorf("above-table clamp: %g, want 12000", got)
	}
	if got := (&CoolantSpec{HTCTable: tab, DesignTempC: 70}).effectiveHTC(); got != 11000 {
		t.Errorf("interpolated 70 °C: %g, want 11000", got)
	}
}

// TestInterfaceOverrides verifies per-interface fields land on the
// built stack and unset fields inherit the stack-wide defaults through
// Stack.Interface.
func TestInterfaceOverrides(t *testing.T) {
	spec := StackSpec{
		Name:                     "iface-test",
		InterlayerResistivityMKW: 0.23,
		Layers: []LayerSpec{
			{Template: "memory"}, {Template: "cores"}, {Template: "memory"},
		},
		Interfaces: []InterfaceSpec{
			{},
			{TSVs: 2048, ThicknessMM: 0.05, Coolant: &CoolantSpec{HTCWm2K: 9000}},
		},
	}
	st, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	i0 := st.Interface(0)
	if i0.ResistivityMKW != 0.23 || i0.ThicknessMM != InterlayerThicknessMM || i0.CoolantHTCWm2K != 0 {
		t.Errorf("interface 0 should inherit stack defaults, got %+v", i0)
	}
	i1 := st.Interface(1)
	if want := NewTSVModel().JointResistivity(2048); i1.ResistivityMKW != want {
		t.Errorf("interface 1 resistivity %g, want TSV-derived %g", i1.ResistivityMKW, want)
	}
	if i1.ThicknessMM != 0.05 || i1.CoolantHTCWm2K != 9000 {
		t.Errorf("interface 1 overrides lost: %+v", i1)
	}
}

// TestSpecTSVDefaults pins the stack-wide resistivity resolution order:
// explicit value wins, then TSV derivation, then the paper's 0.23.
func TestSpecTSVDefaults(t *testing.T) {
	base := StackSpec{Layers: []LayerSpec{{Template: "memory"}, {Template: "cores"}}}

	st, err := base.Build()
	if err != nil {
		t.Fatal(err)
	}
	if st.InterlayerResistivityMKW != 0.23 {
		t.Errorf("default resistivity %g, want 0.23", st.InterlayerResistivityMKW)
	}

	tsv := base
	tsv.TSVsPerInterface = 4096
	st, err = tsv.Build()
	if err != nil {
		t.Fatal(err)
	}
	if want := NewTSVModel().JointResistivity(4096); st.InterlayerResistivityMKW != want {
		t.Errorf("TSV-derived resistivity %g, want %g", st.InterlayerResistivityMKW, want)
	}

	explicit := tsv
	explicit.InterlayerResistivityMKW = 0.1
	st, err = explicit.Build()
	if err != nil {
		t.Fatal(err)
	}
	if st.InterlayerResistivityMKW != 0.1 {
		t.Errorf("explicit resistivity %g should beat the TSV derivation", st.InterlayerResistivityMKW)
	}
}
