package sim

import (
	"math"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/workload"
)

// shortCfg returns a config that runs fast enough for unit tests.
func shortCfg(t *testing.T, pol policy.Policy) Config {
	t.Helper()
	b, err := workload.ByName("Web-med")
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Exp:       floorplan.EXP1,
		Policy:    pol,
		Bench:     b,
		DurationS: 30,
		Seed:      1,
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("config without policy accepted")
	}
	cfg := shortCfg(t, policy.NewDefault())
	cfg.TickS = -1
	if _, err := Run(cfg); err == nil {
		t.Error("negative tick accepted")
	}
	cfg = shortCfg(t, policy.NewDefault())
	cfg.TprefC = 90 // above threshold
	if _, err := Run(cfg); err == nil {
		t.Error("Tpref above threshold accepted")
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
	b, _ := workload.ByName("MPlayer") // 6.5% utilization: lots of idling
	cfg := shortCfg(t, policy.NewDefault())
	cfg.Bench = b
	cfg.DurationS = 60
	cfg.UseDPM = true
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.SleepEntries == 0 {
		t.Error("DPM never put a core to sleep on a 6.5%-utilization workload")
	}
	// DPM must reduce energy versus the same run without it.
	cfg.UseDPM = false
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
	b, _ := workload.ByName("Web-high")
	cfg := Config{
		Exp:       floorplan.EXP3,
		Policy:    policy.NewCGate(),
		Bench:     b,
		DurationS: 60,
		Seed:      2,
	}
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

func TestRunDVFSReducesEnergy(t *testing.T) {
	b, _ := workload.ByName("Database")
	base := shortCfg(t, policy.NewDefault())
	base.Bench = b
	r1, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	slow := shortCfg(t, policy.NewStaticLevels(2))
	slow.Bench = b
	r2, err := Run(slow)
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
	cfg := shortCfg(t, policy.NewDefault())
	cfg.StackSpec = &spec
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
