package repro

import (
	"strings"
	"testing"
)

func TestFacadeBuildAndRun(t *testing.T) {
	stack, err := BuildStack(EXP2)
	if err != nil {
		t.Fatal(err)
	}
	if stack.NumCores() != 8 {
		t.Fatalf("EXP2 has %d cores, want 8", stack.NumCores())
	}
	bench, err := BenchmarkByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := GenerateJobs(bench, stack.NumCores(), 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	adapt, err := NewAdapt3D(stack, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ExperimentSpec(EXP2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(SimConfig{StackSpec: spec, Policy: adapt, Jobs: jobs, DurationS: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.PolicyName != "Adapt3D" {
		t.Errorf("policy name %q", res.PolicyName)
	}
	if res.Ticks != 200 {
		t.Errorf("ticks = %d, want 200", res.Ticks)
	}
}

func TestFacadePolicyRoster(t *testing.T) {
	names := PolicyNames()
	if len(names) != 14 { // the paper's 11 + DVFS_Rel + the MPC pair
		t.Fatalf("roster has %d names", len(names))
	}
	stack, _ := BuildStack(EXP1)
	set, err := PolicySet(stack, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != len(names) {
		t.Fatalf("set size %d != names %d", len(set), len(names))
	}
	p, err := PolicyByName("Migr", stack, 3)
	if err != nil || p.Name() != "Migr" {
		t.Errorf("PolicyByName failed: %v %v", p, err)
	}
}

func TestFacadeModelsAndRender(t *testing.T) {
	stack, _ := BuildStack(EXP3)
	m, err := NewThermalModel(stack)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumBlocks() != stack.NumBlocks() {
		t.Error("thermal model block count mismatch")
	}
	if err := DefaultThermalParams().Validate(); err != nil {
		t.Error(err)
	}
	if err := DefaultPowerModel().Validate(); err != nil {
		t.Error(err)
	}
	out := RenderStack(stack)
	if !strings.Contains(out, "EXP-3") || !strings.Contains(out, "heat sink") {
		t.Error("render output incomplete")
	}
	if len(Benchmarks()) != 8 {
		t.Error("Table I should have 8 benchmarks")
	}
}
