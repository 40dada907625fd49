package sweep

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/thermal"
)

// TestSpecJSONRoundTrip pins the sweep-request wire format: a Spec
// survives marshal/unmarshal intact (so a remote sweep expands to the
// same job list the client would run locally) and the encoded form
// uses the human-readable spellings.
func TestSpecJSONRoundTrip(t *testing.T) {
	spec := Spec{
		Scenarios: []Scenario{
			{Exp: floorplan.EXP1},
			{Exp: floorplan.EXP3, GridRows: 8, GridCols: 8, JointResistivityMKW: 0.5},
		},
		Policies:   []string{"Default", "Adapt3D"},
		Benchmarks: []string{"Web-med"},
		Replicates: 2,
		Seed:       7,
		Solvers:    []thermal.SolverKind{thermal.SolverCached, thermal.SolverDense},
		DurationsS: []float64{30, 60},
		UseDPM:     true,
	}
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"EXP-1"`, `"EXP-3"`, `"cached"`, `"dense"`, `"grid_rows":8`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("encoded spec %s is missing %s", b, want)
		}
	}
	var got Spec
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, spec) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, spec)
	}
	a, bJobs := spec.Expand(), got.Expand()
	if !reflect.DeepEqual(a, bJobs) {
		t.Fatal("round-tripped spec expands to a different job list")
	}
}

// TestStackScenarioWire pins the declarative-stack wire forms: a named
// reference encodes as a JSON string, an inline spec as the full
// StackSpec object, both decode back, and the exp field disappears
// entirely for stack scenarios (exactly one selector on the wire).
func TestStackScenarioWire(t *testing.T) {
	inline := &floorplan.StackSpec{
		Name:   "wire-inline",
		Layers: []floorplan.LayerSpec{{Template: "memory"}, {Template: "cores", FreqScale: 0.7, PowerScale: 0.5}},
	}
	reg := floorplan.StackSpec{Name: "wire-registered", Layers: []floorplan.LayerSpec{{Template: "cores"}}}
	if err := floorplan.RegisterStackSpec(reg); err != nil {
		t.Fatal(err)
	}

	spec := Spec{
		Scenarios: []Scenario{
			{Stack: &StackRef{Name: "wire-registered"}},
			{Stack: &StackRef{Spec: inline}, GridRows: 8, GridCols: 8},
		},
		Policies:   []string{"Default"},
		Benchmarks: []string{"Web-med"},
	}
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"stack":"wire-registered"`, `"name":"wire-inline"`, `"freq_scale":0.7`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("encoded spec %s is missing %s", b, want)
		}
	}
	if strings.Contains(string(b), `"exp"`) {
		t.Errorf("stack scenarios must omit the exp field, got %s", b)
	}
	var got Spec
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, spec) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, spec)
	}
	if !reflect.DeepEqual(spec.Expand(), got.Expand()) {
		t.Fatal("round-tripped stack spec expands to a different job list")
	}
	for _, sc := range spec.Scenarios {
		if _, err := sc.StackSpec(); err != nil {
			t.Errorf("scenario %s: %v", sc.ID(), err)
		}
	}

	// Inline specs are parsed strictly on the wire too.
	var bad Scenario
	if err := json.Unmarshal([]byte(`{"stack": {"layrs": []}}`), &bad); err == nil {
		t.Error("inline spec with unknown field decoded")
	}
}

// TestStackScenarioIdentity pins the identity rules that keep cache
// and job keys collision-free: named references key on the name,
// inline specs on content hash, and the "stack:" namespace never
// intersects the builtin "EXP-n" IDs.
func TestStackScenarioIdentity(t *testing.T) {
	named := Scenario{Stack: &StackRef{Name: "big-little"}}
	if got := named.ID(); got != "stack:big-little" {
		t.Errorf("named ID %q, want stack:big-little", got)
	}
	spec := &floorplan.StackSpec{Name: "idt", Layers: []floorplan.LayerSpec{{Template: "cores"}}}
	inline := Scenario{Stack: &StackRef{Spec: spec}}
	if want := "stack:idt#" + spec.Hash(); inline.ID() != want {
		t.Errorf("inline ID %q, want %q", inline.ID(), want)
	}
	anon := *spec
	anon.Name = ""
	anonSc := Scenario{Stack: &StackRef{Spec: &anon}}
	if want := "stack:" + anon.Hash(); anonSc.ID() != want {
		t.Errorf("anonymous inline ID %q, want %q", anonSc.ID(), want)
	}
	changed := *spec
	changed.Layers = append([]floorplan.LayerSpec{}, spec.Layers...)
	changed.Layers[0].FreqScale = 0.9
	if (Scenario{Stack: &StackRef{Spec: &changed}}).ID() == inline.ID() {
		t.Error("different inline specs share an ID")
	}
	for _, e := range floorplan.ExtendedExperiments() {
		if strings.HasPrefix((Scenario{Exp: e}).ID(), "stack:") {
			t.Errorf("builtin %v ID collides with the stack namespace", e)
		}
	}
}

// TestCheckStackErrors walks the invalid stack selections
// Scenario.StackSpec rejects, and pins how it resolves the builtin
// shorthand: the shipped spec with the joint resistivity set
// explicitly.
func TestCheckStackErrors(t *testing.T) {
	spec := &floorplan.StackSpec{Layers: []floorplan.LayerSpec{{Template: "cores"}}}
	cases := []struct {
		name string
		sc   Scenario
		want string
	}{
		{"neither", Scenario{}, "selects no stack"},
		{"both", Scenario{Exp: floorplan.EXP1, Stack: &StackRef{Spec: spec}}, "both exp"},
		{"jr on stack", Scenario{Stack: &StackRef{Spec: spec}, JointResistivityMKW: 0.1}, "does not apply"},
		{"unknown name", Scenario{Stack: &StackRef{Name: "not-registered-anywhere"}}, "unknown stack"},
		{"negative jr", Scenario{Exp: floorplan.EXP1, JointResistivityMKW: -0.1}, "must be positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.sc.StackSpec()
			if err == nil {
				t.Fatal("invalid scenario resolved to a stack spec")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	for _, tc := range []struct {
		jr, want float64
	}{{0.4, 0.4}, {0, 0.23}} {
		got, err := (Scenario{Exp: floorplan.EXP2, JointResistivityMKW: tc.jr}).StackSpec()
		if err != nil {
			t.Fatalf("jr override %g on a builtin experiment must stay legal: %v", tc.jr, err)
		}
		want, err := floorplan.SpecForExperiment(floorplan.EXP2)
		if err != nil {
			t.Fatal(err)
		}
		want.InterlayerResistivityMKW = tc.want
		if !reflect.DeepEqual(got, want) {
			t.Errorf("jr %g resolved to %+v, want %+v", tc.jr, got, want)
		}
	}
}
