package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/floorplan"
	"repro/internal/reliability"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// TestMain re-execs the test binary as dtmsim when the marker is
// set, so smoke tests can drive real flag parsing (and its exit codes)
// without building the command separately.
func TestMain(m *testing.M) {
	if os.Getenv("DTMSIM_SMOKE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain re-invokes this test binary as the command with the given
// arguments, returning its exit code and combined output.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DTMSIM_SMOKE_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("running %v: %v", args, err)
	}
	return ee.ExitCode(), string(out)
}

func TestHelpExitsZero(t *testing.T) {
	code, out := runMain(t, "-h")
	if code != 0 {
		t.Fatalf("-h exited %d:\n%s", code, out)
	}
	for _, flag := range []string{"-exp", "-policy", "-bench", "-heatmap", "-reliability", "-grid"} {
		if !strings.Contains(out, flag) {
			t.Fatalf("usage text missing %s:\n%s", flag, out)
		}
	}
}

func TestBadFlagExitsTwo(t *testing.T) {
	code, out := runMain(t, "-definitely-not-a-flag")
	if code != 2 {
		t.Fatalf("bad flag exited %d, want 2:\n%s", code, out)
	}
	if !strings.Contains(out, "Usage") {
		t.Fatalf("bad flag printed no usage:\n%s", out)
	}
}

// TestReliabilityOutput pins the -reliability report byte for byte
// against committed golden text, worst-core line included.
func TestReliabilityOutput(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"exp4-adapt3d.txt", []string{"-exp", "4", "-policy", "Adapt3D", "-reliability", "-duration", "60"}},
		{"exp3-dvfsrel-dpm-grid8.txt", []string{"-exp", "3", "-policy", "DVFS_Rel", "-reliability", "-dpm", "-grid", "8", "-duration", "60"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			code, out := runMain(t, tc.args...)
			if code != 0 {
				t.Fatalf("%v exited %d:\n%s", tc.args, code, out)
			}
			if out != string(want) {
				t.Fatalf("%v output differs from testdata/%s\n got:\n%s\nwant:\n%s", tc.args, tc.golden, out, want)
			}
		})
	}
}

// TestGoldenTraceAndHeatmap holds -trace's CSV file and -heatmap's
// report to committed goldens byte for byte. Both goldens were written
// by the engine's own trace writer and heatmap options before dtmsim
// stepped the engine itself.
func TestGoldenTraceAndHeatmap(t *testing.T) {
	golden := func(name string) string {
		t.Helper()
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	trace := filepath.Join(t.TempDir(), "trace.csv")
	args := []string{"-exp", "2", "-policy", "DVFS_TT", "-dpm", "-duration", "2", "-trace", trace}
	if code, out := runMain(t, args...); code != 0 {
		t.Fatalf("%v exited %d:\n%s", args, code, out)
	}
	got, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if want := golden("exp2-dvfstt-dpm-2s.csv"); string(got) != want {
		t.Errorf("%v trace differs from testdata/exp2-dvfstt-dpm-2s.csv\n got:\n%s\nwant:\n%s", args, got, want)
	}

	args = []string{"-exp", "4", "-policy", "Default", "-bench", "Web&DB", "-duration", "60", "-heatmap"}
	code, out := runMain(t, args...)
	if code != 0 {
		t.Fatalf("%v exited %d:\n%s", args, code, out)
	}
	if want := golden("exp4-default-webdb-heatmap.txt"); out != want {
		t.Errorf("%v output differs from testdata/exp4-default-webdb-heatmap.txt\n got:\n%s\nwant:\n%s", args, out, want)
	}
}

// TestRunTraceWriter checks the -trace file's shape: the header, the
// t=0 row of the initial state, then one row per tick, every row as
// wide as the header.
func TestRunTraceWriter(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.csv")
	args := []string{"-exp", "1", "-duration", "5", "-trace", trace}
	code, out := runMain(t, args...)
	if code != 0 {
		t.Fatalf("%v exited %d:\n%s", args, code, out)
	}
	if !strings.Contains(out, "trace            : written to "+trace+"\n") {
		t.Errorf("report does not name the trace file:\n%s", out)
	}
	buf, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(buf), "\n"), "\n")
	const ticks = 50 // 5 s at 100 ms
	if len(lines) != ticks+2 {
		t.Fatalf("trace has %d lines, want header + t=0 row + %d ticks", len(lines), ticks)
	}
	head := strings.Split(lines[0], ",")
	if head[0] != "time_s" || head[1] != "power_w" {
		t.Errorf("trace header %v", head[:2])
	}
	stack := floorplan.MustBuild(floorplan.EXP1)
	if len(head) != 2+stack.NumCores() {
		t.Errorf("trace header has %d columns, want %d", len(head), 2+stack.NumCores())
	}
	for i, line := range lines[1:] {
		row := strings.Split(line, ",")
		if len(row) != len(head) {
			t.Fatalf("row %d width %d != header width %d", i, len(row), len(head))
		}
	}
	if first := strings.Split(lines[1], ",")[0]; first != "0.0" {
		t.Errorf("first trace row starts at t=%s, want the fixed-point initialized t=0.0 state", first)
	}
	if second := strings.Split(lines[2], ",")[0]; second != "0.1" {
		t.Errorf("second trace row at t=%s, want 0.1", second)
	}
	if last := strings.Split(lines[len(lines)-1], ",")[0]; last != "5.0" {
		t.Errorf("last trace row at t=%s, want 5.0", last)
	}
}

// TestNegativeGridExitsNonZero checks that a negative -grid is an
// error, not a silent block-mode run.
func TestNegativeGridExitsNonZero(t *testing.T) {
	code, out := runMain(t, "-grid", "-3", "-duration", "1")
	if code == 0 {
		t.Fatalf("-grid -3 exited 0:\n%s", out)
	}
	if !strings.Contains(out, "negative grid") {
		t.Errorf("-grid -3 failed without naming the negative grid:\n%s", out)
	}
}

// TestMatchesSweepRecord cross-checks the command against the sweep:
// for each job, every number the report prints that a sweep record
// carries equals that field of the record exp.NewRunners makes for the
// same sweep.Job, formatted with the report's own verbs, and the job
// count equals the job's trace length. The other numbers (DPM sleep
// transitions, the worst core, the worst block's layer, cycle count and
// EM factor) have no record field; TestReliabilityOutput pins them.
func TestMatchesSweepRecord(t *testing.T) {
	run, _ := exp.NewRunners(exp.RunnerHooks{})
	for _, tc := range []struct {
		name string
		args []string
		job  sweep.Job
	}{
		{
			"exp3-default",
			[]string{"-exp", "3", "-policy", "Default", "-bench", "Web-med", "-duration", "60", "-seed", "1"},
			sweep.Job{Scenario: sweep.Scenario{Exp: floorplan.EXP3}, Policy: "Default", Bench: "Web-med", Seed: 1, DurationS: 60},
		},
		{
			"exp3-dvfsrel-dpm-grid8",
			[]string{"-exp", "3", "-policy", "DVFS_Rel", "-reliability", "-dpm", "-grid", "8", "-duration", "60"},
			sweep.Job{Scenario: sweep.Scenario{Exp: floorplan.EXP3, GridRows: 8, GridCols: 8}, Policy: "DVFS_Rel", Bench: "Web-med", Seed: 1,
				DurationS: 60, UseDPM: true, Reliability: true},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec, err := run(context.Background(), tc.job)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := exp.JobConfig(workload.NewTraceCache(), tc.job)
			if err != nil {
				t.Fatal(err)
			}
			code, out := runMain(t, tc.args...)
			if code != 0 {
				t.Fatalf("%v exited %d:\n%s", tc.args, code, out)
			}
			want := []string{
				fmt.Sprintf("%s on ", rec.Policy),
				fmt.Sprintf(", %s, %.0f s simulated, DPM=%v\n", rec.Bench, rec.DurationS, rec.UseDPM),
				fmt.Sprintf("  hot spots        : %6.2f %% ", rec.HotSpotPct),
				fmt.Sprintf("  spatial gradients: %6.2f %% ", rec.GradientPct),
				fmt.Sprintf("  thermal cycles   : %6.2f %% ", rec.CyclePct),
				fmt.Sprintf("  temperatures     : avg core %.1f °C, peak %.1f °C, worst vertical gradient %.2f °C\n",
					rec.AvgCoreTempC, rec.MaxTempC, rec.MaxVerticalC),
				fmt.Sprintf("  power / energy   : %.1f W average, %.1f kJ total\n", rec.AvgPowerW, rec.EnergyJ/1000),
				fmt.Sprintf("  scheduling       : %d/%d jobs completed, mean response %.3f s, %d migrations\n",
					rec.JobsCompleted, len(cfg.Jobs), rec.MeanResponseS, rec.Migrations),
			}
			if rec.Reliability {
				want = append(want,
					fmt.Sprintf("  lifetime         : worst block %s (layer ", rec.RelWorstBlock),
					fmt.Sprintf(" — cycling damage %.3f over ", rec.RelWorstCycleDamage),
					fmt.Sprintf("; chip total %.3f, rel. MTTF %.3g\n", rec.RelTotalCycleDamage, rec.RelMTTF))
				for l, d := range rec.RelLayerDamage {
					want = append(want, fmt.Sprintf("    layer %d damage : %.3f\n", l, d))
				}
				if n := strings.Count(out, " damage : "); n != len(rec.RelLayerDamage) {
					t.Errorf("report prints %d layer damages, the record holds %d", n, len(rec.RelLayerDamage))
				}
			}
			for _, w := range want {
				if !strings.Contains(out, w) {
					t.Errorf("report lacks the record's %q:\n%s", w, out)
				}
			}
		})
	}
}

// TestWorstCore pins the worst-core rule of the -reliability report:
// the core block with the largest cycling damage plus EM factor wins,
// so a hot steady core can out-stress a cool cycling one, and ties go
// to the lower core id.
func TestWorstCore(t *testing.T) {
	stack := floorplan.MustBuild(floorplan.EXP1)
	worst := func(coreTemp func(core, sample int) float64) int {
		t.Helper()
		tr, err := reliability.NewTracker(stack.NumBlocks(), 0.1)
		if err != nil {
			t.Fatal(err)
		}
		temps := make([]float64, stack.NumBlocks())
		for i := 0; i < 100; i++ {
			for b := range temps {
				temps[b] = 60
			}
			for c, b := range stack.Cores() {
				temps[stack.BlockIndex(b)] = coreTemp(c, i)
			}
			if err := tr.Observe(temps); err != nil {
				t.Fatal(err)
			}
		}
		rep := tr.Report()
		c, w := worstCore(stack, &rep)
		if w != rep.Blocks[stack.BlockIndex(stack.Core(c))] {
			t.Fatalf("worst core %d reported another block's wear", c)
		}
		return c
	}
	// Core 2 cycles hard and runs hot.
	if c := worst(func(c, i int) float64 {
		if c == 2 && i%2 == 0 {
			return 90
		}
		return 60
	}); c != 2 {
		t.Errorf("cycling hot core: worst core %d, want 2", c)
	}
	// Core 5 cycles mildly near 60 °C; core 3 sits at 95 °C without
	// cycling. EM acceleration makes core 3 the more stressed one.
	if c := worst(func(c, i int) float64 {
		switch {
		case c == 3:
			return 95
		case c == 5 && i%2 == 0:
			return 62
		}
		return 60
	}); c != 3 {
		t.Errorf("hot steady core vs cool cycling core: worst core %d, want 3", c)
	}
	// Identical cores tie; the lowest id wins.
	if c := worst(func(int, int) float64 { return 70 }); c != 0 {
		t.Errorf("tied cores: worst core %d, want 0", c)
	}
}
