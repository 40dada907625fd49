package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/floorplan"
	"repro/internal/thermal"
)

// DefaultSeedStride separates replicate seed streams. It is large and
// prime so that the per-benchmark seed offsets (seed + bench ID) of one
// replicate can never collide with another replicate's stream.
const DefaultSeedStride = 7919

// Scenario names one stack-plus-thermal-model configuration of the
// sweep space. The zero GridRows/GridCols pair selects the block-level
// thermal model; setting both switches that scenario to grid mode.
type Scenario struct {
	// Name is an optional label prefixed to the scenario's identity in
	// job keys and reports. The physical configuration always
	// contributes to the identity too — a name is a label, not an
	// alias — so two scenarios sharing a name but differing in physics
	// can never collide in job keys (and therefore in result caches).
	Name string `json:"name,omitempty"`
	// Exp selects a builtin floorplan stack (EXP-1..EXP-6). Exactly one
	// of Exp and Stack must be set (StackSpec enforces this; the zero
	// Exp is omitted from the wire form).
	Exp floorplan.Experiment `json:"exp,omitempty"`
	// Stack selects a declarative stack instead of a builtin
	// experiment: either a registered spec by name or a full inline
	// floorplan.StackSpec (see StackRef's wire forms).
	Stack *StackRef `json:"stack,omitempty"`
	// JointResistivityMKW overrides the paper's 0.23 m·K/W when nonzero.
	// Only meaningful with Exp; a declarative stack carries its own
	// interface physics, so combining it with Stack is a validation
	// error rather than a silent ignore.
	JointResistivityMKW float64 `json:"joint_resistivity_mkw,omitempty"`
	// GridRows/GridCols switch the thermal model to grid mode when both
	// are positive.
	GridRows int `json:"grid_rows,omitempty"`
	GridCols int `json:"grid_cols,omitempty"`
}

// StackRef references a declarative stack in a scenario: by registry
// name or as a full inline spec. On the wire it is either a JSON
// string (`"stack": "big-little"`, resolved against the process-wide
// floorplan spec registry — the shipped scenario library plus any
// operator-registered specs) or a JSON object (the floorplan.StackSpec
// schema, self-contained so a client can sweep a stack the server has
// never seen).
type StackRef struct {
	// Name references a registered spec; empty when Spec is inline.
	Name string
	// Spec is the inline spec; nil when Name references the registry.
	Spec *floorplan.StackSpec
}

// MarshalJSON writes the registry-name string form or the inline spec
// object form.
func (r StackRef) MarshalJSON() ([]byte, error) {
	if r.Spec != nil {
		return json.Marshal(r.Spec)
	}
	if r.Name == "" {
		return nil, fmt.Errorf("sweep: stack reference is empty (need a name or an inline spec)")
	}
	return json.Marshal(r.Name)
}

// UnmarshalJSON accepts both wire forms. Inline specs are parsed
// strictly (unknown fields rejected) and validated.
func (r *StackRef) UnmarshalJSON(b []byte) error {
	trimmed := bytes.TrimSpace(b)
	if len(trimmed) > 0 && trimmed[0] == '"' {
		return json.Unmarshal(trimmed, &r.Name)
	}
	spec, err := floorplan.ParseStackSpec(trimmed)
	if err != nil {
		return err
	}
	r.Spec = spec
	return nil
}

// Resolve returns the referenced spec: the inline spec directly, or a
// registry lookup by name.
func (r StackRef) Resolve() (floorplan.StackSpec, error) {
	if r.Spec != nil {
		return *r.Spec, nil
	}
	if r.Name == "" {
		return floorplan.StackSpec{}, fmt.Errorf("sweep: stack reference is empty (need a name or an inline spec)")
	}
	spec, ok := floorplan.LookupStackSpec(r.Name)
	if !ok {
		return floorplan.StackSpec{}, fmt.Errorf("sweep: unknown stack %q (registered: %v)", r.Name, floorplan.RegisteredStackSpecs())
	}
	return spec, nil
}

// id returns the reference's contribution to scenario identity. Named
// references key on the registry name (registration refuses to rebind
// a name to different content); inline specs key on content hash, so
// two different inline stacks can never share cache entries, while the
// same spec sent by different clients deduplicates. The "stack:"
// prefix keeps the namespace disjoint from the builtin "EXP-n" IDs.
func (r StackRef) id() string {
	if r.Spec != nil {
		name := r.Spec.Name
		if name != "" {
			name += "#"
		}
		return "stack:" + name + r.Spec.Hash()
	}
	return "stack:" + r.Name
}

// ID returns the scenario's stable identity. Every field that changes
// the simulated system contributes — unconditionally, whether or not
// the scenario is named — so two distinct scenarios can never collide
// into one job key. (Keys feed dtmserved's result cache: a name that
// aliased away the physics would let one configuration's cached
// records be served as another's.)
func (s Scenario) ID() string {
	id := s.Exp.String()
	if s.Stack != nil {
		id = s.Stack.id()
	}
	if s.GridRows > 0 && s.GridCols > 0 {
		id = fmt.Sprintf("%s/grid%dx%d", id, s.GridRows, s.GridCols)
	}
	if s.JointResistivityMKW != 0 {
		id = fmt.Sprintf("%s/jr%g", id, s.JointResistivityMKW)
	}
	if s.Name != "" {
		return s.Name + "@" + id
	}
	return id
}

// StackSpec resolves the scenario to the one stack identity every
// layer below the wire consumes. A builtin experiment becomes its
// shipped spec with the joint resistivity set explicitly
// (floorplan.SpecWithResistivity: 0 selects the paper's 0.23 m·K/W);
// a stack reference resolves to its inline or registered spec. It
// rejects invalid selections — neither or both of Exp and Stack, a
// joint-resistivity override on a declarative stack (which carries its
// own interface physics), an unresolvable reference — and runners and
// the server both call it, so a bad scenario fails with the same
// message locally and over the wire. The scenario's ID is unaffected:
// job keys stay the wire-level names.
func (s Scenario) StackSpec() (floorplan.StackSpec, error) {
	if s.Stack == nil {
		if s.Exp == 0 {
			return floorplan.StackSpec{}, fmt.Errorf("sweep: scenario %q selects no stack (set exp or stack)", s.Name)
		}
		return floorplan.SpecWithResistivity(s.Exp, s.JointResistivityMKW)
	}
	if s.Exp != 0 {
		return floorplan.StackSpec{}, fmt.Errorf("sweep: scenario %q sets both exp %s and a stack reference", s.Name, s.Exp)
	}
	if s.JointResistivityMKW != 0 {
		return floorplan.StackSpec{}, fmt.Errorf("sweep: scenario %q: joint_resistivity_mkw does not apply to declarative stacks (set the spec's interlayer fields)", s.Name)
	}
	return s.Stack.Resolve()
}

// ScenariosFor wraps plain experiments as block-model scenarios.
func ScenariosFor(exps []floorplan.Experiment) []Scenario {
	out := make([]Scenario, len(exps))
	for i, e := range exps {
		out[i] = Scenario{Exp: e}
	}
	return out
}

// Spec declares a sweep as a cross product. Every dimension is
// explicit, so Expand is a pure function of the Spec and two runs of
// the same Spec enumerate identical job lists — the property sharding
// and resumption rely on.
type Spec struct {
	// Scenarios are the stack/thermal-model configurations.
	Scenarios []Scenario `json:"scenarios"`
	// Policies are exp policy names (see exp.PolicyOrder).
	Policies []string `json:"policies"`
	// Benchmarks are Table I benchmark names.
	Benchmarks []string `json:"benchmarks"`
	// Replicates is the number of independent seeds per cell; 0 means 1.
	Replicates int `json:"replicates,omitempty"`
	// Seed is the base seed; replicate r uses Seed + r*SeedStride.
	Seed int64 `json:"seed,omitempty"`
	// SeedStride separates replicate seed streams (0 selects
	// DefaultSeedStride). Replicate 0 always runs at exactly Seed, so a
	// single-replicate sweep reproduces the pre-orchestrator results.
	SeedStride int64 `json:"seed_stride,omitempty"`
	// Solvers are the solver labels to sweep (empty: cached). Every
	// label solves on the shared sparse factorization; the label only
	// names the job's key and record.
	Solvers []thermal.SolverKind `json:"solvers,omitempty"`
	// DurationsS are the simulated durations to sweep (empty: 300 s).
	DurationsS []float64 `json:"durations_s,omitempty"`
	// UseDPM composes the fixed-timeout power manager into every run.
	UseDPM bool `json:"use_dpm,omitempty"`
	// Reliability attaches the streaming lifetime tracker to every run:
	// records then carry the rel_* wear fields (worst-block cycling
	// damage, per-layer damage, EM acceleration, relative MTTF). It is
	// part of the job identity — reliability-enabled records hold more
	// fields, so they must never be served from a cache entry written
	// without them.
	Reliability bool `json:"reliability,omitempty"`
	// Baseline is the policy normalized against (empty: "Default").
	// When it is not already in Policies, Expand appends baseline-only
	// jobs so every (scenario, benchmark, replicate, solver, duration)
	// combination has a reference run.
	Baseline string `json:"baseline,omitempty"`
}

func (s Spec) withDefaults() Spec {
	if s.Replicates <= 0 {
		s.Replicates = 1
	}
	if s.SeedStride == 0 {
		s.SeedStride = DefaultSeedStride
	}
	if len(s.Solvers) == 0 {
		s.Solvers = []thermal.SolverKind{thermal.SolverCached}
	}
	if len(s.DurationsS) == 0 {
		s.DurationsS = []float64{300}
	}
	if s.Baseline == "" {
		s.Baseline = "Default"
	}
	return s
}

// ReplicateSeed returns the base seed of replicate r under the spec.
func (s Spec) ReplicateSeed(r int) int64 {
	stride := s.SeedStride
	if stride == 0 {
		stride = DefaultSeedStride
	}
	return s.Seed + int64(r)*stride
}

// Job is one fully-specified simulation run of a sweep. It carries
// JSON tags (mirroring Record's field names) because jobs travel on
// the wire standalone: the cluster peer-fill path POSTs one Job to the
// key's owner node, and the round-tripped job must reproduce the exact
// Key() the sender computed.
type Job struct {
	Scenario  Scenario `json:"scenario"`
	Policy    string   `json:"policy"`
	Bench     string   `json:"bench"`
	Replicate int      `json:"replicate"`
	// Seed is the replicate's base seed (trace generation additionally
	// offsets it by the benchmark ID, as exp.Run always has).
	Seed      int64              `json:"seed"`
	Solver    thermal.SolverKind `json:"solver"`
	DurationS float64            `json:"duration_s"`
	UseDPM    bool               `json:"use_dpm,omitempty"`
	// Reliability runs the job with the streaming lifetime tracker and
	// fills the record's rel_* fields.
	Reliability bool `json:"reliability,omitempty"`
	// Baseline marks a reference run appended by Expand because the
	// baseline policy was not part of Spec.Policies; aggregators use it
	// for normalization but do not report it as a cell.
	Baseline bool `json:"baseline,omitempty"`
}

// Key returns the job's stable identity: equal for the same logical
// run across processes, shards, and resumed sweeps, and independent of
// expansion order. The replicate's seed is part of the key, so
// resuming against a checkpoint written under a different base seed
// correctly reruns everything instead of silently reusing the old
// seed's results. Baseline-only runs share keys with regular runs of
// the same policy so a resumed sweep with a widened policy roster
// still skips them.
func (j Job) Key() string {
	dpm := "nodpm"
	if j.UseDPM {
		dpm = "dpm"
	}
	key := fmt.Sprintf("%s|%s|%s|r%d.s%d|%s|%gs|%s",
		j.Scenario.ID(), j.Policy, j.Bench, j.Replicate, j.Seed, j.Solver, j.DurationS, dpm)
	if j.Reliability {
		// Reliability changes the record contents (rel_* fields), so it
		// is part of the identity; the suffix form keeps every
		// pre-reliability key — and thus existing checkpoints — valid.
		key += "|rel"
	}
	return key
}

// Hash returns the stable FNV-1a hash of the job key used for
// sharding. It depends only on Key, so every invocation of the same
// spec agrees on which shard owns which job.
func (j Job) Hash() uint64 {
	h := fnv.New64a()
	h.Write([]byte(j.Key()))
	return h.Sum64()
}

// Expand enumerates the cross product in canonical order (policy,
// scenario, benchmark, replicate, solver, duration), appending
// baseline-only jobs at the end when the baseline policy is absent
// from Policies. The order is deterministic but aggregators must not
// depend on it: sharded and resumed sweeps deliver subsets.
func (s Spec) Expand() []Job {
	s = s.withDefaults()
	var jobs []Job
	add := func(policy string, baseline bool) {
		for _, sc := range s.Scenarios {
			for _, bench := range s.Benchmarks {
				for r := 0; r < s.Replicates; r++ {
					for _, solver := range s.Solvers {
						for _, dur := range s.DurationsS {
							jobs = append(jobs, Job{
								Scenario:    sc,
								Policy:      policy,
								Bench:       bench,
								Replicate:   r,
								Seed:        s.ReplicateSeed(r),
								Solver:      solver,
								DurationS:   dur,
								UseDPM:      s.UseDPM,
								Reliability: s.Reliability,
								Baseline:    baseline,
							})
						}
					}
				}
			}
		}
	}
	hasBaseline := false
	for _, p := range s.Policies {
		if p == s.Baseline {
			hasBaseline = true
		}
		add(p, false)
	}
	if !hasBaseline {
		add(s.Baseline, true)
	}
	return jobs
}

// NumJobs returns the size of the job list Expand would build, without
// building it. Servers use it to reject oversized sweep requests
// before the expansion allocates anything: a request body of a few
// bytes can declare a cross product of billions. The count saturates
// at MaxInt32 — any sweep that large is over every sane limit anyway.
func (s Spec) NumJobs() int {
	s = s.withDefaults()
	policies := len(s.Policies)
	hasBaseline := false
	for _, p := range s.Policies {
		if p == s.Baseline {
			hasBaseline = true
		}
	}
	if !hasBaseline {
		policies++ // Expand appends baseline-only jobs
	}
	n := int64(1)
	for _, f := range []int{policies, len(s.Scenarios), len(s.Benchmarks), s.Replicates, len(s.Solvers), len(s.DurationsS)} {
		if f > math.MaxInt32 {
			return math.MaxInt32
		}
		n *= int64(f)
		if n > math.MaxInt32 {
			return math.MaxInt32
		}
	}
	return int(n)
}

// Shard selects the jobs owned by shard index out of count shards by
// stable job hash. Shards of the same job list are disjoint and their
// union is the whole list, so N invocations with -shard 0/N .. N-1/N
// together cover one full sweep.
func Shard(jobs []Job, index, count int) ([]Job, error) {
	if count <= 0 {
		return nil, fmt.Errorf("sweep: shard count must be positive, got %d", count)
	}
	if index < 0 || index >= count {
		return nil, fmt.Errorf("sweep: shard index %d out of range [0,%d)", index, count)
	}
	if count == 1 {
		return jobs, nil
	}
	var out []Job
	for _, j := range jobs {
		if j.Hash()%uint64(count) == uint64(index) {
			out = append(out, j)
		}
	}
	return out, nil
}
