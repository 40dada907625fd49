// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus microbenchmarks of the simulation substrates.
// The figure benchmarks run reduced-duration sweeps per iteration and
// print the regenerated rows once; cmd/dtmsweep produces the full-length
// versions.
package repro

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync"
	"testing"

	"repro/internal/exp"
	"repro/internal/floorplan"
	"repro/internal/linalg"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/thermal"
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

// BenchmarkTableI_Workloads regenerates Table I: synthesizing the eight
// benchmark traces and validating their offered load.
func BenchmarkTableI_Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, bench := range workload.TableI() {
			jobs, err := workload.Generate(workload.GenConfig{
				Bench: bench, NumCores: 8, DurationS: 1800, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			_ = workload.OfferedLoad(jobs, 8, 1800)
		}
	}
	printFigure("Table I", func(w io.Writer) error {
		t, err := exp.TableIReport(1)
		if err != nil {
			return err
		}
		return t.Render(w)
	})
}

// BenchmarkTableII_ThermalModel regenerates Table II by building the
// thermal networks of all four configurations from the published
// parameters.
func BenchmarkTableII_ThermalModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, e := range floorplan.AllExperiments() {
			s := floorplan.MustBuild(e)
			if _, err := thermal.NewBlockModel(s, thermal.DefaultParams()); err != nil {
				b.Fatal(err)
			}
		}
	}
	printFigure("Table II", func(w io.Writer) error { return exp.TableIIReport().Render(w) })
}

// BenchmarkFig1_Floorplans regenerates Figure 1: building and validating
// the four stacks.
func BenchmarkFig1_Floorplans(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, e := range floorplan.AllExperiments() {
			s, err := floorplan.Build(e)
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	}
	printFigure("Fig. 1 (EXP-3)", func(w io.Writer) error {
		_, err := io.WriteString(w, floorplan.RenderStack(floorplan.MustBuild(floorplan.EXP3), 46, 8))
		return err
	})
}

// BenchmarkFig2_TSVResistivity regenerates Figure 2: the joint interface
// resistivity sweep over TSV density.
func BenchmarkFig2_TSVResistivity(b *testing.B) {
	m := floorplan.NewTSVModel()
	counts := floorplan.DefaultFig2ViaCounts()
	for i := 0; i < b.N; i++ {
		_ = m.Fig2Curve(counts)
	}
	printFigure("Fig. 2", func(w io.Writer) error { return exp.Fig2Report().Render(w) })
}

// figureSweep runs a reduced policy x experiment matrix for one figure.
func figureSweep(b *testing.B, useDPM bool, exps []floorplan.Experiment) *exp.Matrix {
	b.Helper()
	m, err := exp.Run(exp.MatrixConfig{
		Exps:       exps,
		Benchmarks: []string{"Web-med", "Web&DB"},
		UseDPM:     useDPM,
		DurationS:  benchDuration,
		Seed:       1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return m
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

// BenchmarkFig3_HotSpotsNoDPM regenerates Figure 3: hot-spot residency
// without DPM plus the normalized performance series.
func BenchmarkFig3_HotSpotsNoDPM(b *testing.B) {
	var m *exp.Matrix
	for i := 0; i < b.N; i++ {
		m = figureSweep(b, false, []floorplan.Experiment{floorplan.EXP1, floorplan.EXP3})
	}
	printFigure("Fig. 3 (hot spots %, no DPM; reduced sweep)", renderMatrixHotspots(m, "hot"))
	printFigure("Fig. 3 (performance)", func(w io.Writer) error {
		for pi, p := range m.Config.Policies {
			c := m.Cells[pi][len(m.Config.Exps)-1]
			fmt.Fprintf(w, "%-18s perf=%.3f delay=%+.2f%%\n", p, c.NormPerf, c.DelayPct)
		}
		return nil
	})
}

// BenchmarkFig4_HotSpotsDPM regenerates Figure 4: hot spots with DPM.
func BenchmarkFig4_HotSpotsDPM(b *testing.B) {
	var m *exp.Matrix
	for i := 0; i < b.N; i++ {
		m = figureSweep(b, true, []floorplan.Experiment{floorplan.EXP1, floorplan.EXP3})
	}
	printFigure("Fig. 4 (hot spots %, with DPM; reduced sweep)", renderMatrixHotspots(m, "hot"))
}

// BenchmarkFig5_SpatialGradients regenerates Figure 5: spatial gradients
// with DPM.
func BenchmarkFig5_SpatialGradients(b *testing.B) {
	var m *exp.Matrix
	for i := 0; i < b.N; i++ {
		m = figureSweep(b, true, []floorplan.Experiment{floorplan.EXP2, floorplan.EXP4})
	}
	printFigure("Fig. 5 (gradients %, with DPM; reduced sweep)", renderMatrixHotspots(m, "grad"))
}

// BenchmarkFig6_ThermalCycles regenerates Figure 6: thermal cycles with
// DPM on EXP-1 and EXP-3.
func BenchmarkFig6_ThermalCycles(b *testing.B) {
	var m *exp.Matrix
	for i := 0; i < b.N; i++ {
		m = figureSweep(b, true, []floorplan.Experiment{floorplan.EXP1, floorplan.EXP3})
	}
	printFigure("Fig. 6 (cycles %, with DPM; reduced sweep)", renderMatrixHotspots(m, "cyc"))
}

// corePower builds the 3 W-per-core power vector used by the solver
// benchmarks.
func corePower(s *floorplan.Stack) []float64 {
	p := make([]float64, s.NumBlocks())
	for _, c := range s.Cores() {
		p[s.BlockIndex(c)] = 3
	}
	return p
}

// benchSteadyState measures one steady-state solve of the EXP-4 block
// network on the given solver path. The uncached sparse kind pays the
// full factorization in each iteration, exactly like the seed's per-run
// cost; the cached kind factors once and back-solves.
func benchSteadyState(b *testing.B, kind thermal.SolverKind) {
	b.Helper()
	m, p := exp4BlockModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.SteadyStateWith(p, kind); err != nil {
			b.Fatal(err)
		}
	}
}

// exp4BlockModel returns the EXP-4 block network, after emptying the
// shared model cache, and its 3 W-per-core power vector: the system
// every solver benchmark solves.
func exp4BlockModel(b *testing.B) (*thermal.Model, []float64) {
	b.Helper()
	thermal.ResetFactorCache()
	s := floorplan.MustBuild(floorplan.EXP4)
	m, err := thermal.NewBlockModel(s, thermal.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	return m, corePower(s)
}

// denseTransientMatrix densifies the implicit-Euler matrix C/dt + G.
func denseTransientMatrix(m *thermal.Model, dt float64) *linalg.Matrix {
	a := m.G.ToDense()
	for i, c := range m.C {
		a.Add(i, i, c/dt)
	}
	return a
}

// BenchmarkThermalSteadyStateDense is the dense LU reference on the
// same system: each iteration densifies G and LU-factors it.
func BenchmarkThermalSteadyStateDense(b *testing.B) {
	m, p := exp4BlockModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pn, err := m.ExpandPower(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := linalg.SolveDense(m.G.ToDense(), pn); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkThermalSteadyStateSparse(b *testing.B) { benchSteadyState(b, thermal.SolverSparse) }
func BenchmarkThermalSteadyStateCached(b *testing.B) { benchSteadyState(b, thermal.SolverCached) }

// BenchmarkThermalSteadyStateGridCached solves a 32x32 grid-mode EXP-4
// network (>5000 nodes) on the cached sparse path, factorization
// prewarmed; the dense counterpart would be an O(n³) factorization per
// solve and is deliberately omitted.
func BenchmarkThermalSteadyStateGridCached(b *testing.B) {
	thermal.ResetFactorCache()
	s := floorplan.MustBuild(floorplan.EXP4)
	m, err := thermal.NewGridModel(s, thermal.DefaultParams(), 32, 32)
	if err != nil {
		b.Fatal(err)
	}
	p := corePower(s)
	if _, err := m.SteadyState(p); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.SteadyState(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThermalTransientStepDense measures one implicit-Euler step
// of the EXP-4 block network (the per-tick cost of the simulator) on a
// dense LU factorization built outside the loop; against
// BenchmarkThermalTransientStepSparse it isolates the per-step solve
// cost of dense LU vs sparse LDLᵀ back-substitution.
func BenchmarkThermalTransientStepDense(b *testing.B) {
	const dt = 0.1
	m, p := exp4BlockModel(b)
	lu, err := linalg.Factor(denseTransientMatrix(m, dt))
	if err != nil {
		b.Fatal(err)
	}
	n := m.NumNodes
	cdt, pn, rise, rhs := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i, c := range m.C {
		cdt[i] = c / dt
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.ExpandPowerInto(pn, p); err != nil {
			b.Fatal(err)
		}
		for j := range rhs {
			rhs[j] = cdt[j]*rise[j] + pn[j]
		}
		if err := lu.Solve(rise, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkThermalTransientStepSparse(b *testing.B) {
	m, p := exp4BlockModel(b)
	tr, err := m.NewTransientWith(0.1, nil, thermal.SolverSparse)
	if err != nil {
		b.Fatal(err)
	}
	// The first step allocates the integrator's lazy solve scratch; time
	// the steady state, so -benchtime 1x reads what 1000x does.
	if _, err := tr.Step(p); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Step(p); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTransientSetup measures integrator construction (the per-run
// factorization cost the cache amortizes across a sweep): sparse
// refactors per call, cached hits the shared factorization.
func benchTransientSetup(b *testing.B, kind thermal.SolverKind) {
	b.Helper()
	m, _ := exp4BlockModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.NewTransientWith(0.1, nil, kind); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThermalTransientSetupDense is the dense reference's setup:
// densify C/dt + G and LU-factor it.
func BenchmarkThermalTransientSetupDense(b *testing.B) {
	m, _ := exp4BlockModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := linalg.Factor(denseTransientMatrix(m, 0.1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkThermalTransientSetupSparse(b *testing.B) { benchTransientSetup(b, thermal.SolverSparse) }
func BenchmarkThermalTransientSetupCached(b *testing.B) { benchTransientSetup(b, thermal.SolverCached) }

// BenchmarkSweepCached runs a reduced policy x benchmark sweep on EXP-3
// and EXP-4 per iteration — the structure of the paper's figure sweeps.
// The cache is reset once before the loop, so it reflects sweep-scale
// reuse of the shared factorizations.
func BenchmarkSweepCached(b *testing.B) {
	thermal.ResetFactorCache()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(exp.MatrixConfig{
			Exps:       []floorplan.Experiment{floorplan.EXP3, floorplan.EXP4},
			Benchmarks: []string{"Web-med"},
			Policies:   []string{"Default", "Adapt3D"},
			DurationS:  10,
			Seed:       1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSweepPath runs the Fig3-class job list (full policy roster, two
// stacks, two benchmarks) through sweep.Execute on the given path:
// grouped fuses same-system runs into one panel solve per tick (the
// production default), per-job steps every run's triangular solves
// independently. The pair isolates what batching buys at the sweep
// level; run with -benchmem. At this scale grouping wins — on
// setup-dominated micro sweeps (a couple of short jobs) the two paths
// are within noise of each other.
func benchSweepPath(b *testing.B, grouped bool) {
	b.Helper()
	spec := exp.MatrixConfig{
		Exps:       []floorplan.Experiment{floorplan.EXP1, floorplan.EXP3},
		Benchmarks: []string{"Web-med", "Web&DB"},
		DurationS:  benchDuration,
		Seed:       1,
	}.Spec()
	jobs := spec.Expand()
	thermal.ResetFactorCache()
	if err := exp.Prewarm(spec); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, runGroup := exp.NewRunners(exp.RunnerHooks{})
		opts := sweep.Options{}
		if grouped {
			opts.Group = exp.GroupKey
			opts.RunGroup = runGroup
		}
		col := &sweep.Collector{}
		if _, err := sweep.Execute(context.Background(), jobs, run, opts, col); err != nil {
			b.Fatal(err)
		}
		if len(col.Records) != len(jobs) {
			b.Fatalf("streamed %d records, want %d", len(col.Records), len(jobs))
		}
	}
}

func BenchmarkSweepGrouped(b *testing.B) { benchSweepPath(b, true) }
func BenchmarkSweepPerJob(b *testing.B)  { benchSweepPath(b, false) }

// BenchmarkSimulatedSecond measures full simulator throughput: one
// simulated second (10 ticks) of EXP-3 under Adapt3D per iteration.
func BenchmarkSimulatedSecond(b *testing.B) {
	stack := floorplan.MustBuild(floorplan.EXP3)
	bench, err := workload.ByName("Web-med")
	if err != nil {
		b.Fatal(err)
	}
	jobs, err := workload.Generate(workload.GenConfig{Bench: bench, NumCores: 16, DurationS: float64(b.N), Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	pol, err := exp.BuildPolicy("Adapt3D", stack, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if _, err := sim.Run(sim.Config{
		Exp:       floorplan.EXP3,
		Policy:    pol,
		Jobs:      jobs,
		DurationS: float64(b.N),
		Seed:      1,
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWorkloadGeneration measures trace synthesis throughput.
func BenchmarkWorkloadGeneration(b *testing.B) {
	bench, _ := workload.ByName("Web-high")
	for i := 0; i < b.N; i++ {
		if _, err := workload.Generate(workload.GenConfig{Bench: bench, NumCores: 16, DurationS: 300, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdapt3DTick measures the policy's per-interval cost (the
// paper argues it is negligible).
func BenchmarkAdapt3DTick(b *testing.B) {
	stack := floorplan.MustBuild(floorplan.EXP4)
	pol, err := exp.BuildPolicy("Adapt3D", stack, 1)
	if err != nil {
		b.Fatal(err)
	}
	n := stack.NumCores()
	v := &policy.View{
		TickS:      0.1,
		TempsC:     make([]float64, n),
		Utils:      make([]float64, n),
		QueueLens:  make([]int, n),
		States:     make([]power.CoreState, n),
		Levels:     make([]power.VfLevel, n),
		Stack:      stack,
		ThresholdC: 85,
		TprefC:     80,
	}
	for i := range v.TempsC {
		v.TempsC[i] = 70 + float64(i%10)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol.Tick(v)
	}
}
