package sim

import (
	"math"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/workload"
)

// expSpec returns experiment e's stack spec with the paper's joint
// interlayer resistivity, as a sweep scenario resolves it.
func expSpec(t testing.TB, e floorplan.Experiment) *floorplan.StackSpec {
	t.Helper()
	spec, err := floorplan.SpecWithResistivity(e, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &spec
}

// withTrace sets cfg's job trace to bench's trace on cfg's stack over
// cfg's duration, generated at seed.
func withTrace(t testing.TB, cfg Config, bench string, seed int64) Config {
	t.Helper()
	b, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	stack, err := cfg.StackSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Jobs, err = workload.Generate(workload.GenConfig{Bench: b, NumCores: stack.NumCores(), DurationS: cfg.DurationS, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// testConfig returns a run of pol on experiment e for durationS seconds,
// replaying bench's trace generated at seed.
func testConfig(t testing.TB, e floorplan.Experiment, pol policy.Policy, bench string, durationS float64, seed int64) Config {
	t.Helper()
	return withTrace(t, Config{StackSpec: expSpec(t, e), Policy: pol, DurationS: durationS}, bench, seed)
}

// shortCfg returns a config that runs fast enough for unit tests.
func shortCfg(t testing.TB, pol policy.Policy) Config {
	t.Helper()
	return testConfig(t, floorplan.EXP1, pol, "Web-med", 30, 1)
}

func TestRunValidation(t *testing.T) {
	cfg := shortCfg(t, policy.NewDefault())
	cfg.Policy = nil
	if _, err := Run(cfg); err == nil {
		t.Error("config without policy accepted")
	}
	cfg = shortCfg(t, policy.NewDefault())
	cfg.StackSpec = nil
	if _, err := Run(cfg); err == nil {
		t.Error("config without stack spec accepted")
	}
	cfg = shortCfg(t, policy.NewDefault())
	cfg.DPM.TimeoutS = -1
	if _, err := Run(cfg); err == nil {
		t.Error("negative DPM timeout accepted")
	}
	cfg = shortCfg(t, policy.NewDefault())
	cfg.DurationS = -1
	if _, err := Run(cfg); err == nil {
		t.Error("negative duration accepted")
	}
	cfg = shortCfg(t, policy.NewDefault())
	cfg.GridRows, cfg.GridCols = -1, -1
	if _, err := Run(cfg); err == nil {
		t.Error("negative grid accepted")
	}
}

// TestRunIdleWithoutTrace pins the meaning of an empty trace: a config
// with no jobs is an idle run, not a default workload.
func TestRunIdleWithoutTrace(t *testing.T) {
	cfg := shortCfg(t, policy.NewDefault())
	cfg.Jobs = nil
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.JobsGenerated != 0 || r.JobsCompleted != 0 || r.Ticks != 300 {
		t.Errorf("idle run: %d jobs generated, %d completed, %d ticks; want 0, 0, 300", r.JobsGenerated, r.JobsCompleted, r.Ticks)
	}
}

func TestRunBasicInvariants(t *testing.T) {
	r, err := Run(shortCfg(t, policy.NewDefault()))
	if err != nil {
		t.Fatal(err)
	}
	if r.Ticks != 300 {
		t.Errorf("ticks = %d, want 300 (30 s at 100 ms)", r.Ticks)
	}
	if r.JobsGenerated == 0 {
		t.Error("no jobs generated")
	}
	if r.JobsCompleted > r.JobsGenerated {
		t.Errorf("completed %d > generated %d", r.JobsCompleted, r.JobsGenerated)
	}
	if r.AvgPowerW <= 0 || math.IsNaN(r.AvgPowerW) {
		t.Errorf("average power %g not positive", r.AvgPowerW)
	}
	if r.EnergyJ <= 0 {
		t.Errorf("energy %g not positive", r.EnergyJ)
	}
	if r.Metrics.MaxTempC < 45 || r.Metrics.MaxTempC > 200 {
		t.Errorf("peak temperature %g outside sane envelope", r.Metrics.MaxTempC)
	}
	if r.Metrics.AvgCoreTempC <= 45 {
		t.Errorf("average core temperature %g should exceed ambient", r.Metrics.AvgCoreTempC)
	}
}

func TestRunDeterministic(t *testing.T) {
	r1, err := Run(shortCfg(t, policy.NewDefault()))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(shortCfg(t, policy.NewDefault()))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Metrics.HotSpotPct != r2.Metrics.HotSpotPct ||
		r1.EnergyJ != r2.EnergyJ ||
		r1.JobsCompleted != r2.JobsCompleted ||
		r1.Sched.MeanResponseS != r2.Sched.MeanResponseS {
		t.Error("identical configs produced different results")
	}
}

func TestRunReplaysProvidedTrace(t *testing.T) {
	b, _ := workload.ByName("gzip")
	jobs, err := workload.Generate(workload.GenConfig{Bench: b, NumCores: 8, DurationS: 30, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg := shortCfg(t, policy.NewDefault())
	cfg.Jobs = jobs
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.JobsGenerated != len(jobs) {
		t.Errorf("engine saw %d jobs, trace has %d", r.JobsGenerated, len(jobs))
	}
}

func TestRunDPMSleepsIdleCores(t *testing.T) {
	// MPlayer: 6.5% utilization, lots of idling.
	cfg := testConfig(t, floorplan.EXP1, policy.NewDefault(), "MPlayer", 60, 1)
	cfg.DPM = policy.DefaultDPM()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.SleepEntries == 0 {
		t.Error("DPM never put a core to sleep on a 6.5%-utilization workload")
	}
	// DPM must reduce energy versus the same run without it.
	cfg.DPM = policy.DPM{}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.EnergyJ >= r2.EnergyJ {
		t.Errorf("DPM energy %.1f J should be below no-DPM %.1f J", r.EnergyJ, r2.EnergyJ)
	}
	// And the work still gets done.
	if r.JobsCompleted < r2.JobsCompleted*95/100 {
		t.Errorf("DPM lost too much work: %d vs %d jobs", r.JobsCompleted, r2.JobsCompleted)
	}
}

func TestRunCGateActuallyGates(t *testing.T) {
	// On the 4-tier stack under heavy load, CGate must stall cores.
	cfg := testConfig(t, floorplan.EXP3, policy.NewCGate(), "Web-high", 60, 2)
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.GatedTicks == 0 {
		t.Error("CGate never gated a core on an overheating stack")
	}
	// Gating caps the peak relative to Default on the same trace.
	cfg.Policy = policy.NewDefault()
	rd, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics.MaxTempC >= rd.Metrics.MaxTempC {
		t.Errorf("CGate peak %.1f should be below Default peak %.1f", r.Metrics.MaxTempC, rd.Metrics.MaxTempC)
	}
}

// fixedLevel holds every core at one V/f level and dispatches arrivals
// as Default does; it never migrates.
type fixedLevel struct {
	alloc *policy.Default
	level power.VfLevel
	lv    []power.VfLevel // reused TickDecision.Levels buffer
}

func (p *fixedLevel) Name() string { return "fixed-level" }

func (p *fixedLevel) AssignCore(v *policy.View, job workload.Job) int {
	return p.alloc.AssignCore(v, job)
}

func (p *fixedLevel) Tick(v *policy.View) policy.TickDecision {
	if len(p.lv) != v.NumCores() {
		p.lv = make([]power.VfLevel, v.NumCores())
	}
	for i := range p.lv {
		p.lv[i] = p.level
	}
	return policy.TickDecision{Levels: p.lv}
}

func TestRunDVFSReducesEnergy(t *testing.T) {
	r1, err := Run(testConfig(t, floorplan.EXP1, policy.NewDefault(), "Database", 30, 1))
	if err != nil {
		t.Fatal(err)
	}
	slowest := &fixedLevel{alloc: policy.NewDefault(), level: 2}
	r2, err := Run(testConfig(t, floorplan.EXP1, slowest, "Database", 30, 1))
	if err != nil {
		t.Fatal(err)
	}
	if r2.AvgPowerW >= r1.AvgPowerW {
		t.Errorf("slowest V/f power %.1f W should be below default %.1f W", r2.AvgPowerW, r1.AvgPowerW)
	}
}

func TestRunGridModeAgreesWithBlockMode(t *testing.T) {
	if testing.Short() {
		t.Skip("grid mode is slow")
	}
	cfg := shortCfg(t, policy.NewDefault())
	rb, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.GridRows, cfg.GridCols = 8, 8
	rg, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rb.Metrics.AvgCoreTempC-rg.Metrics.AvgCoreTempC) > 3 {
		t.Errorf("block avg %.2f vs grid avg %.2f diverge", rb.Metrics.AvgCoreTempC, rg.Metrics.AvgCoreTempC)
	}
}

// TestRunCustomStack runs a hand-declared floorplan — an explicit
// block list, not a builtin layer template — end to end.
func TestRunCustomStack(t *testing.T) {
	w, h := floorplan.ChipWMM, floorplan.ChipHMM
	spec := floorplan.StackSpec{Name: "two-core", Layers: []floorplan.LayerSpec{
		{Template: "memory"},
		{Blocks: []floorplan.BlockSpec{
			{Name: "big0", Kind: "core", X: 0, Y: 0, W: w / 2, H: h / 2},
			{Name: "big1", Kind: "core", X: w / 2, Y: 0, W: w / 2, H: h / 2},
			{Name: "rest", Kind: "other", X: 0, Y: h / 2, W: w, H: h / 2},
		}},
	}}
	cfg := withTrace(t, Config{StackSpec: &spec, Policy: policy.NewDefault(), DurationS: 30}, "Web-med", 1)
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Metrics.PerCoreHotPct) != 2 {
		t.Errorf("per-core metrics sized %d, want 2", len(r.Metrics.PerCoreHotPct))
	}
}

func TestRunSensorsNoiseDoesNotBreakPolicies(t *testing.T) {
	cfg := shortCfg(t, policy.NewCGate())
	cfg.Sensors.NoiseStdDevC = 1.0
	cfg.Sensors.QuantizationC = 0.5
	cfg.Sensors.Seed = 3
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

// badPolicy returns invalid decisions to exercise the engine's checks.
type badPolicy struct{ mode int }

func (b badPolicy) Name() string { return "bad" }
func (b badPolicy) AssignCore(v *policy.View, _ workload.Job) int {
	if b.mode == 0 {
		return -1
	}
	return 0
}
func (b badPolicy) Tick(v *policy.View) policy.TickDecision {
	switch b.mode {
	case 1:
		return policy.TickDecision{Levels: make([]power.VfLevel, 1)}
	case 2:
		return policy.TickDecision{Gate: []bool{true}}
	}
	return policy.TickDecision{}
}

func TestRunRejectsBadPolicyDecisions(t *testing.T) {
	cfg := shortCfg(t, badPolicy{mode: 0})
	if _, err := Run(cfg); err == nil {
		t.Error("invalid core assignment accepted")
	}
	cfg = shortCfg(t, badPolicy{mode: 2})
	if _, err := Run(cfg); err == nil {
		t.Error("short gate vector accepted")
	}
}
