// Ablation benchmarks for five design choices of the reproduction: the
// thermal-index source, the TSV density, the DPM timeout, the Adapt3D
// history window, and the thermal-model mode. Each runs a small
// controlled comparison per iteration and prints the conclusion once.
package repro

import (
	"fmt"
	"io"
	"os"
	"sync"
	"testing"

	"repro/internal/exp"
	"repro/internal/floorplan"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchDuration keeps per-iteration simulation cost bounded.
const benchDuration = 60

var printOnce sync.Map

// printFigure renders a table once per benchmark name so `go test
// -bench=.` output carries the regenerated rows without repeating them
// every iteration.
func printFigure(name string, render func(w io.Writer) error) {
	if _, loaded := printOnce.LoadOrStore(name, true); loaded {
		return
	}
	fmt.Fprintf(os.Stdout, "\n=== %s ===\n", name)
	if err := render(os.Stdout); err != nil {
		fmt.Fprintf(os.Stdout, "render error: %v\n", err)
	}
}

func renderMatrixHotspots(m *exp.Matrix, title string) func(io.Writer) error {
	return func(w io.Writer) error {
		for pi, p := range m.Config.Policies {
			fmt.Fprintf(w, "%-18s", p)
			for ei := range m.Config.Exps {
				fmt.Fprintf(w, "  %v=%6.2f%%", m.Config.Exps[ei], pick(title, m.Cells[pi][ei]))
			}
			fmt.Fprintln(w)
		}
		return nil
	}
}

func pick(metric string, c exp.Cell) float64 {
	switch metric {
	case "grad":
		return c.GradientPct
	case "cyc":
		return c.CyclePct
	default:
		return c.HotSpotPct
	}
}

// ablationConfig is an EXP-3 run of pol on the Web&DB trace of seed 5,
// with the joint interlayer resistivity rho (0 selects the paper's).
func ablationConfig(b *testing.B, rho float64, pol policy.Policy) sim.Config {
	b.Helper()
	spec, err := floorplan.SpecWithResistivity(floorplan.EXP3, rho)
	if err != nil {
		b.Fatal(err)
	}
	stack, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	bench, err := workload.ByName("Web&DB")
	if err != nil {
		b.Fatal(err)
	}
	jobs, err := workload.Generate(workload.GenConfig{Bench: bench, NumCores: stack.NumCores(), DurationS: benchDuration, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	return sim.Config{StackSpec: &spec, Policy: pol, Jobs: jobs, DurationS: benchDuration}
}

// ablationRun executes one EXP-3 run with a prepared policy.
func ablationRun(b *testing.B, pol policy.Policy, mutate func(*sim.Config)) *sim.Result {
	b.Helper()
	cfg := ablationConfig(b, 0, pol)
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := sim.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkAblationAlphaSource compares the three thermal-index sources
// for Adapt3D: steady-state solve (offline, the default), floorplan
// geometry, and runtime rank estimation. The paper reports offline and
// runtime selection behave equivalently.
func BenchmarkAblationAlphaSource(b *testing.B) {
	stack := floorplan.MustBuild(floorplan.EXP3)
	model, err := NewThermalModel(stack)
	if err != nil {
		b.Fatal(err)
	}
	build := map[string]func() (*policy.Adapt3D, error){
		"steady-state": func() (*policy.Adapt3D, error) {
			cfg := policy.DefaultAdapt3DConfig()
			cfg.Seed = 5
			return policy.NewAdapt3D(stack, model, cfg)
		},
		"geometric": func() (*policy.Adapt3D, error) {
			cfg := policy.DefaultAdapt3DConfig()
			cfg.Seed = 5
			cfg.Alpha = policy.GeometricIndices(stack)
			return policy.NewAdapt3D(stack, nil, cfg)
		},
		"online": func() (*policy.Adapt3D, error) {
			cfg := policy.DefaultAdapt3DConfig()
			cfg.Seed = 5
			cfg.OnlineWindow = 300
			return policy.NewAdapt3D(stack, nil, cfg)
		},
	}
	results := make(map[string]float64)
	for i := 0; i < b.N; i++ {
		for name, mk := range build {
			pol, err := mk()
			if err != nil {
				b.Fatal(err)
			}
			r := ablationRun(b, pol, nil)
			results[name] = r.Metrics.HotSpotPct
		}
	}
	printFigure("Ablation: Adapt3D thermal-index source (hot-spot % on EXP-3)", func(w io.Writer) error {
		for _, name := range []string{"steady-state", "geometric", "online"} {
			fmt.Fprintf(w, "  %-12s %6.2f%%\n", name, results[name])
		}
		return nil
	})
}

// BenchmarkAblationTSVDensity sweeps the joint interlayer resistivity
// (TSV count) and reports its effect on the hot-spot metric — the
// paper's observation that even 1-2% density changes the profile by only
// a few degrees.
func BenchmarkAblationTSVDensity(b *testing.B) {
	type point struct {
		vias float64
		hot  float64
		peak float64
	}
	var pts []point
	for i := 0; i < b.N; i++ {
		pts = pts[:0]
		for _, rho := range []float64{0.25, 0.23, 0.20, 0.15} {
			r, err := sim.Run(ablationConfig(b, rho, policy.NewDefault()))
			if err != nil {
				b.Fatal(err)
			}
			pts = append(pts, point{vias: rho, hot: r.Metrics.HotSpotPct, peak: r.Metrics.MaxTempC})
		}
	}
	printFigure("Ablation: joint interlayer resistivity (EXP-3, Default)", func(w io.Writer) error {
		for _, p := range pts {
			fmt.Fprintf(w, "  rho=%.2f mK/W  hot=%6.2f%%  peak=%.1f °C\n", p.vias, p.hot, p.peak)
		}
		return nil
	})
}

// BenchmarkAblationDPMTimeout sweeps the fixed-timeout constant.
func BenchmarkAblationDPMTimeout(b *testing.B) {
	type point struct {
		timeout float64
		hot     float64
		powerW  float64
		sleeps  int
	}
	var pts []point
	for i := 0; i < b.N; i++ {
		pts = pts[:0]
		for _, to := range []float64{0.1, 0.3, 1.0, 3.0} {
			r := ablationRun(b, policy.NewDefault(), func(c *sim.Config) {
				c.DPM = policy.DPM{TimeoutS: to}
			})
			pts = append(pts, point{timeout: to, hot: r.Metrics.HotSpotPct, powerW: r.AvgPowerW, sleeps: r.SleepEntries})
		}
	}
	printFigure("Ablation: DPM timeout (EXP-3, Default)", func(w io.Writer) error {
		for _, p := range pts {
			fmt.Fprintf(w, "  timeout=%.1fs  hot=%6.2f%%  power=%.1fW  sleeps=%d\n", p.timeout, p.hot, p.powerW, p.sleeps)
		}
		return nil
	})
}

// BenchmarkAblationHistoryWindow sweeps Adapt3D's temperature history
// length (the paper uses 10 samples and notes other values can be set).
func BenchmarkAblationHistoryWindow(b *testing.B) {
	stack := floorplan.MustBuild(floorplan.EXP3)
	model, err := NewThermalModel(stack)
	if err != nil {
		b.Fatal(err)
	}
	type point struct {
		window int
		hot    float64
	}
	var pts []point
	for i := 0; i < b.N; i++ {
		pts = pts[:0]
		for _, win := range []int{3, 10, 30, 100} {
			cfg := policy.DefaultAdapt3DConfig()
			cfg.Seed = 5
			cfg.Window = win
			pol, err := policy.NewAdapt3D(stack, model, cfg)
			if err != nil {
				b.Fatal(err)
			}
			r := ablationRun(b, pol, nil)
			pts = append(pts, point{window: win, hot: r.Metrics.HotSpotPct})
		}
	}
	printFigure("Ablation: Adapt3D history window (EXP-3)", func(w io.Writer) error {
		for _, p := range pts {
			fmt.Fprintf(w, "  window=%3d  hot=%6.2f%%\n", p.window, p.hot)
		}
		return nil
	})
}

// BenchmarkAblationThermalMode compares block-mode against grid-mode
// thermal modelling in the full loop.
func BenchmarkAblationThermalMode(b *testing.B) {
	var blockHot, gridHot, blockAvg, gridAvg float64
	for i := 0; i < b.N; i++ {
		rb := ablationRun(b, policy.NewDefault(), nil)
		rg := ablationRun(b, policy.NewDefault(), func(c *sim.Config) {
			c.GridRows, c.GridCols = 8, 8
		})
		blockHot, gridHot = rb.Metrics.HotSpotPct, rg.Metrics.HotSpotPct
		blockAvg, gridAvg = rb.Metrics.AvgCoreTempC, rg.Metrics.AvgCoreTempC
	}
	printFigure("Ablation: thermal model mode (EXP-3, Default)", func(w io.Writer) error {
		fmt.Fprintf(w, "  block mode: hot=%6.2f%% avg=%.1f °C\n", blockHot, blockAvg)
		fmt.Fprintf(w, "  grid  8x8 : hot=%6.2f%% avg=%.1f °C\n", gridHot, gridAvg)
		return nil
	})
}

// BenchmarkAblationExp3Exp4 contrasts the separated (EXP-3) and mixed
// (EXP-4) 4-tier designs under the full policy roster — the design
// trade-off Section IV-A motivates.
func BenchmarkAblationExp3Exp4(b *testing.B) {
	var m *exp.Matrix
	for i := 0; i < b.N; i++ {
		var err error
		m, err = exp.Run(exp.MatrixConfig{
			Exps:       []floorplan.Experiment{floorplan.EXP3, floorplan.EXP4},
			Benchmarks: []string{"Web&DB"},
			Policies:   []string{"Default", "Adapt3D", "Adapt3D&DVFS_TT"},
			DurationS:  benchDuration,
			Seed:       5,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	printFigure("Ablation: separated vs mixed 4-tier design", renderMatrixHotspots(m, "hot"))
}
