package floorplan

import (
	"encoding/json"
	"fmt"
)

// Experiment identifies one of the paper's four 3D configurations (Fig. 1).
type Experiment int

const (
	// EXP1 is a two-layer stack with all 8 cores on the layer next to the
	// heat sink and all memory (L2 banks) on the upper layer.
	EXP1 Experiment = 1
	// EXP2 is a two-layer stack where each layer holds 4 cores and 2 L2
	// banks (logic and memory mixed per layer).
	EXP2 Experiment = 2
	// EXP3 duplicates the EXP1 layer pair to four tiers (16 cores):
	// core, memory, core, memory from the sink upward.
	EXP3 Experiment = 3
	// EXP4 duplicates the EXP2 mixed layer to four tiers (16 cores).
	EXP4 Experiment = 4
	// EXP5 is a sweep-extension variant of EXP3: the same four-tier
	// 16-core separated stack, but flipped so each core layer bonds to
	// the sink side of its tier pair (core, memory, core, memory from
	// the sink upward). It probes how much of EXP3's hot-spot behaviour
	// is the stacking order rather than the core count.
	EXP5 Experiment = 5
	// EXP6 is a six-tier 24-core separated stack (EXP1's layer pair
	// repeated three times), the largest scenario in the extended sweep
	// space.
	EXP6 Experiment = 6
)

// String implements fmt.Stringer.
func (e Experiment) String() string { return fmt.Sprintf("EXP-%d", int(e)) }

// MarshalJSON encodes the experiment as its display name ("EXP-3"), so
// wire formats (the dtmserved sweep API) and stored scenario specs stay
// readable and stable if the underlying numbering ever changes.
func (e Experiment) MarshalJSON() ([]byte, error) {
	if e < EXP1 || e > EXP6 {
		return nil, fmt.Errorf("floorplan: cannot marshal invalid experiment %d", int(e))
	}
	return json.Marshal(e.String())
}

// UnmarshalJSON accepts any spelling ParseExperiment does ("EXP-3",
// "exp3", "3") plus a plain JSON number.
func (e *Experiment) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		var n int
		if err := json.Unmarshal(b, &n); err != nil {
			return fmt.Errorf("floorplan: experiment must be a JSON string or number, got %s", b)
		}
		s = fmt.Sprint(n)
	}
	parsed, err := ParseExperiment(s)
	if err != nil {
		return err
	}
	*e = parsed
	return nil
}

// AllExperiments lists the paper's four configurations (Fig. 1) in
// paper order. Use it wherever the output must match the paper —
// figure/table regeneration, benchmark baselines pinned against the
// published results, and sweep defaults that reproduce Figure 3. It
// deliberately excludes EXP-5/6; callers that mean "every builtin
// stack" must use ExtendedExperiments.
func AllExperiments() []Experiment { return []Experiment{EXP1, EXP2, EXP3, EXP4} }

// ExtendedExperiments lists the full builtin scenario space: the
// paper's four stacks plus the sweep-extension variants EXP5 and EXP6.
// Use it for coverage-style iteration (validation, tooling that
// enumerates every builtin stack, exploratory sweeps); use
// AllExperiments where paper parity is the point.
func ExtendedExperiments() []Experiment {
	return []Experiment{EXP1, EXP2, EXP3, EXP4, EXP5, EXP6}
}

// ParseExperiment converts 1..6 (or "EXP-1".."EXP-6") to an Experiment.
func ParseExperiment(s string) (Experiment, error) {
	switch s {
	case "1", "EXP1", "EXP-1", "exp1":
		return EXP1, nil
	case "2", "EXP2", "EXP-2", "exp2":
		return EXP2, nil
	case "3", "EXP3", "EXP-3", "exp3":
		return EXP3, nil
	case "4", "EXP4", "EXP-4", "exp4":
		return EXP4, nil
	case "5", "EXP5", "EXP-5", "exp5":
		return EXP5, nil
	case "6", "EXP6", "EXP-6", "exp6":
		return EXP6, nil
	}
	return 0, fmt.Errorf("floorplan: unknown experiment %q (want 1..6)", s)
}

// paperJointResistivityMKW is the paper's joint interlayer resistivity
// in m·K/W: >=1024 TSVs at <1% area overhead (Section IV-C).
const paperJointResistivityMKW = 0.23

// Build constructs the stack for the experiment with the paper's joint
// interlayer resistivity of 0.23 m·K/W (>=1024 TSVs, <1% area overhead;
// Section IV-C). Use BuildWithResistivity to explore other TSV densities.
func Build(e Experiment) (*Stack, error) {
	return BuildWithResistivity(e, paperJointResistivityMKW)
}

// BuildWithResistivity constructs the stack for the experiment with an
// explicit, positive joint interlayer resistivity (m·K/W), building
// SpecWithResistivity's spec through the same path as user-defined
// stacks.
func BuildWithResistivity(e Experiment, jointResistivity float64) (*Stack, error) {
	if jointResistivity <= 0 {
		return nil, fmt.Errorf("floorplan: joint resistivity must be positive, got %g", jointResistivity)
	}
	spec, err := SpecWithResistivity(e, jointResistivity)
	if err != nil {
		return nil, err
	}
	return spec.Build()
}

// SpecWithResistivity is SpecForExperiment with the joint interlayer
// resistivity set explicitly: jointResistivity in m·K/W, 0 selecting
// the paper's 0.23. It is the one resolution of the "experiment plus
// joint resistivity" shorthand (sweep.Scenario) into a StackSpec, so
// that shorthand and the spec it names share one content hash and
// therefore one model key.
func SpecWithResistivity(e Experiment, jointResistivity float64) (StackSpec, error) {
	if jointResistivity < 0 {
		return StackSpec{}, fmt.Errorf("floorplan: joint resistivity must be positive, got %g", jointResistivity)
	}
	spec, err := SpecForExperiment(e)
	if err != nil {
		return StackSpec{}, err
	}
	if jointResistivity == 0 {
		jointResistivity = paperJointResistivityMKW
	}
	spec.InterlayerResistivityMKW = jointResistivity
	return spec, nil
}

// MustBuild is Build for statically known experiments; it panics on error.
func MustBuild(e Experiment) *Stack {
	s, err := Build(e)
	if err != nil {
		panic(err)
	}
	return s
}
