package scenarios

import (
	"context"
	"sync"
	"testing"

	"repro/internal/exp"
	"repro/internal/floorplan"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/thermal"
)

// TestLibraryGate is the scenario-library gate CI runs: every shipped
// file must parse strictly, validate, build, produce a solvable block
// thermal model, and survive a short simulation. A library spec that
// regresses any of these cannot ship.
func TestLibraryGate(t *testing.T) {
	names := Names()
	if len(names) < 3 {
		t.Fatalf("library has %d scenarios, want at least 3 (big.LITTLE, DRAM-on-logic, microfluidic)", len(names))
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			spec, ok := Spec(name)
			if !ok {
				t.Fatalf("library name %q has no spec", name)
			}
			if spec.Name != name {
				t.Fatalf("spec name %q filed under %q", spec.Name, name)
			}
			st, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Validate(); err != nil {
				t.Fatal(err)
			}
			m, err := thermal.NewBlockModel(st, thermal.DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			pw := make([]float64, st.NumBlocks())
			for _, b := range st.Cores() {
				pw[st.BlockIndex(b)] = 3
			}
			if _, err := m.SteadyState(pw); err != nil {
				t.Fatalf("steady state: %v", err)
			}
			// One-tick-plus simulation smoke through the full engine.
			specCopy := spec
			res, err := sim.Run(sim.Config{
				Policy:    policy.NewDefault(),
				StackSpec: &specCopy,
				DurationS: 2,
				Seed:      1,
			})
			if err != nil {
				t.Fatalf("simulation smoke: %v", err)
			}
			if res.Ticks == 0 {
				t.Fatal("simulation smoke completed zero ticks")
			}
			// Registered under the same name, with identical content.
			reg, ok := floorplan.LookupStackSpec(name)
			if !ok || reg.Hash() != spec.Hash() {
				t.Error("library spec not registered (or registered with different content)")
			}
		})
	}
}

// collectSink gathers sweep records in memory.
type collectSink struct {
	mu   sync.Mutex
	recs []sweep.Record
}

func (c *collectSink) Put(r sweep.Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recs = append(c.recs, r)
	return nil
}

func (c *collectSink) Close() error { return nil }

// TestLibraryFullPolicyRoster runs every library scenario through the
// real sweep pipeline with the complete policy roster and the
// reliability tracker attached — the acceptance path for new library
// entries: each must compose with all 14 policies, not just Default.
func TestLibraryFullPolicyRoster(t *testing.T) {
	if testing.Short() {
		t.Skip("full roster sweep is not a -short test")
	}
	var scens []sweep.Scenario
	for _, name := range Names() {
		scens = append(scens, sweep.Scenario{Stack: &sweep.StackRef{Name: name}})
	}
	spec := sweep.Spec{
		Scenarios:   scens,
		Policies:    exp.PolicyOrder,
		Benchmarks:  []string{"Web-med"},
		DurationsS:  []float64{2},
		Reliability: true,
	}
	jobs := spec.Expand()
	if want := len(Names()) * len(exp.PolicyOrder); len(jobs) != want {
		t.Fatalf("expanded %d jobs, want %d", len(jobs), want)
	}
	sink := &collectSink{}
	run, _ := exp.NewRunners(exp.RunnerHooks{})
	n, err := sweep.Execute(context.Background(), jobs, run, sweep.Options{}, sink)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(jobs) {
		t.Fatalf("executed %d jobs, want %d", n, len(jobs))
	}
	seen := map[string]bool{}
	for _, r := range sink.recs {
		seen[r.Scenario+"/"+r.Policy] = true
		if r.RelMTTF <= 0 {
			t.Errorf("%s/%s: reliability tracker left rel_mttf at %g", r.Scenario, r.Policy, r.RelMTTF)
		}
		if r.MaxTempC <= 0 {
			t.Errorf("%s/%s: implausible max temperature %g", r.Scenario, r.Policy, r.MaxTempC)
		}
	}
	for _, name := range Names() {
		for _, p := range exp.PolicyOrder {
			if !seen["stack:"+name+"/"+p] {
				t.Errorf("no record for scenario %q policy %q", name, p)
			}
		}
	}
}

// TestLoad pins the CLI -stack argument resolution order: readable file
// first, then registry name, with a clear error for everything else.
func TestLoad(t *testing.T) {
	byFile, err := Load("big-little.json")
	if err != nil {
		t.Fatal(err)
	}
	byName, err := Load("big-little")
	if err != nil {
		t.Fatal(err)
	}
	if byFile.Hash() != byName.Hash() {
		t.Error("file and registry forms of the same scenario differ")
	}
	if _, err := Load("no-such-stack"); err == nil {
		t.Error("unknown name loaded")
	}
	if _, err := Load("no/such/file.json"); err == nil {
		t.Error("missing path loaded")
	}
}
