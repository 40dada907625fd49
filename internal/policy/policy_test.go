package policy

import (
	"math"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/power"
	"repro/internal/workload"
)

// testView builds a consistent view with n cores at the given temps.
func testView(t *testing.T, n int, temps []float64) *View {
	t.Helper()
	exp := floorplan.EXP1
	if n == 16 {
		exp = floorplan.EXP3
	}
	if temps == nil {
		temps = make([]float64, n)
		for i := range temps {
			temps[i] = 60
		}
	}
	return &View{
		NowS:       10,
		TickS:      0.1,
		TempsC:     temps,
		Utils:      make([]float64, n),
		QueueLens:  make([]int, n),
		States:     make([]power.CoreState, n),
		Levels:     make([]power.VfLevel, n),
		Stack:      floorplan.MustBuild(exp),
		DVFS:       power.DefaultDVFS(),
		ThresholdC: 85,
		TprefC:     80,
	}
}

func TestDefaultAssignsLeastLoaded(t *testing.T) {
	p := NewDefault()
	v := testView(t, 8, nil)
	v.QueueLens = []int{3, 1, 2, 5, 4, 2, 2, 2}
	if c := p.AssignCore(v, workload.Job{ID: 1}); c != 1 {
		t.Errorf("assigned to core %d, want least-loaded core 1", c)
	}
}

func TestDefaultLocality(t *testing.T) {
	p := NewDefault()
	v := testView(t, 8, nil)
	first := p.AssignCore(v, workload.Job{ID: 7})
	// Same "process" arriving again with equal queues goes to its
	// previous core.
	if again := p.AssignCore(v, workload.Job{ID: 7}); again != first {
		t.Errorf("locality violated: first %d, again %d", first, again)
	}
}

func TestDefaultRebalances(t *testing.T) {
	p := NewDefault()
	v := testView(t, 8, nil)
	v.QueueLens = []int{6, 0, 1, 1, 1, 1, 1, 1}
	d := p.Tick(v)
	if len(d.Migrations) != 1 {
		t.Fatalf("expected one rebalancing migration, got %d", len(d.Migrations))
	}
	m := d.Migrations[0]
	if m.From != 0 || m.To != 1 || !m.Tail {
		t.Errorf("migration = %+v, want tail move 0 -> 1", m)
	}
	// Balanced queues: no action.
	v.QueueLens = []int{1, 1, 1, 1, 1, 1, 1, 2}
	if d := p.Tick(v); len(d.Migrations) != 0 {
		t.Error("balanced system should not migrate")
	}
}

func TestCGateGatesHotCores(t *testing.T) {
	p := NewCGate()
	temps := []float64{60, 90, 84, 86, 60, 60, 60, 60}
	v := testView(t, 8, temps)
	d := p.Tick(v)
	if d.Gate == nil {
		t.Fatal("CGate returned no gating decision")
	}
	want := []bool{false, true, false, true, false, false, false, false}
	for c := range want {
		if d.Gate[c] != want[c] {
			t.Errorf("core %d gate = %v, want %v", c, d.Gate[c], want[c])
		}
	}
	for c, l := range d.Levels {
		if l != 0 {
			t.Errorf("CGate must keep default V/f, core %d at %d", c, l)
		}
	}
}

func TestDVFSTTSteps(t *testing.T) {
	p := NewDVFSTT()
	v := testView(t, 8, []float64{90, 90, 60, 60, 60, 60, 60, 60})
	v.Levels = []power.VfLevel{0, 2, 2, 1, 0, 0, 0, 0}
	d := p.Tick(v)
	// Hot cores step down one level (clamped), cool cores step up.
	want := []power.VfLevel{1, 2, 1, 0, 0, 0, 0, 0}
	for c := range want {
		if d.Levels[c] != want[c] {
			t.Errorf("core %d level = %d, want %d", c, d.Levels[c], want[c])
		}
	}
}

func TestDVFSUtilTracksDemand(t *testing.T) {
	p := NewDVFSUtil()
	v := testView(t, 8, nil)
	v.Utils = []float64{1.0, 0.5, 0.05, 0, 0, 0, 0, 0}
	v.QueueLens = []int{3, 1, 1, 0, 0, 0, 0, 0}
	d := p.Tick(v)
	if d.Levels[0] != 0 {
		t.Errorf("backlogged core should run at full speed, got %d", d.Levels[0])
	}
	if d.Levels[1] == 0 {
		t.Error("half-utilized core should slow down")
	}
	if d.Levels[2] != power.VfLevel(v.DVFS.Levels()-1) {
		t.Errorf("nearly idle core should use slowest level, got %d", d.Levels[2])
	}
}

func TestDVFSFLPSlowsSusceptibleCores(t *testing.T) {
	p := NewDVFSFLP()
	v := testView(t, 16, make([]float64, 16))
	d := p.Tick(v)
	if d.Levels == nil {
		t.Fatal("no levels returned")
	}
	// Cores 8..15 sit on layer 2 (far from the sink) and must not be
	// faster than their lateral twins on layer 0.
	for i := 0; i < 8; i++ {
		if d.Levels[8+i] < d.Levels[i] {
			t.Errorf("core %d (far layer) level %d faster than core %d (near layer) level %d",
				8+i, d.Levels[8+i], i, d.Levels[i])
		}
	}
	// Static: second call identical.
	d2 := p.Tick(v)
	for c := range d.Levels {
		if d.Levels[c] != d2.Levels[c] {
			t.Error("DVFS_FLP assignment should be static")
		}
	}
}

func TestMigrMovesHotToCoolest(t *testing.T) {
	p := NewMigr()
	temps := []float64{90, 50, 70, 60, 88, 55, 65, 62}
	v := testView(t, 8, temps)
	v.QueueLens = []int{1, 0, 1, 1, 2, 0, 1, 1}
	d := p.Tick(v)
	if len(d.Migrations) != 2 {
		t.Fatalf("expected 2 migrations (two hot cores), got %d", len(d.Migrations))
	}
	// Hottest (core 0 at 90) pairs with the coolest (core 1 at 50).
	if d.Migrations[0].From != 0 || d.Migrations[0].To != 1 {
		t.Errorf("first migration %+v, want 0 -> 1", d.Migrations[0])
	}
	// Second hot core (4 at 88) pairs with next coolest (5 at 55).
	if d.Migrations[1].From != 4 || d.Migrations[1].To != 5 {
		t.Errorf("second migration %+v, want 4 -> 5", d.Migrations[1])
	}
	for _, m := range d.Migrations {
		if m.Tail {
			t.Error("thermal migration must move the running job, not the tail")
		}
	}
}

func TestMigrNoHotCores(t *testing.T) {
	p := NewMigr()
	v := testView(t, 8, nil)
	v.QueueLens = []int{1, 1, 1, 1, 1, 1, 1, 1}
	if d := p.Tick(v); len(d.Migrations) != 0 {
		t.Error("no migrations expected below threshold")
	}
}

func TestMigrSkipsIdleHotCores(t *testing.T) {
	p := NewMigr()
	temps := []float64{90, 50, 60, 60, 60, 60, 60, 60}
	v := testView(t, 8, temps)
	// Hot core has nothing to migrate.
	v.QueueLens = make([]int, 8)
	if d := p.Tick(v); len(d.Migrations) != 0 {
		t.Error("idle hot core cannot migrate a job")
	}
}

func TestAdaptRandShiftsProbabilityToCoolCores(t *testing.T) {
	a, err := NewAdaptRand(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	temps := []float64{95, 95, 60, 60, 60, 60, 60, 60}
	v := testView(t, 8, temps)
	for i := 0; i < 20; i++ {
		a.Tick(v)
	}
	p := a.Probabilities()
	if p[0] != 0 || p[1] != 0 {
		t.Errorf("above-threshold cores must have zero probability, got %g, %g", p[0], p[1])
	}
	sum := 0.0
	for _, x := range p {
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %g, want 1", sum)
	}
}

func TestAdaptRandSamplingFollowsDistribution(t *testing.T) {
	a, _ := NewAdaptRand(4, 2)
	temps := []float64{86, 86, 86, 60} // only core 3 below threshold
	v := testView(t, 8, nil)
	v.TempsC = temps
	v.Utils = make([]float64, 4)
	v.QueueLens = make([]int, 4)
	v.States = make([]power.CoreState, 4)
	v.Levels = make([]power.VfLevel, 4)
	for i := 0; i < 15; i++ {
		a.Tick(v)
	}
	for i := 0; i < 50; i++ {
		if c := a.AssignCore(v, workload.Job{ID: i}); c != 3 {
			t.Fatalf("sampled core %d, but only core 3 has probability mass", c)
		}
	}
}

func TestProbEngineValidation(t *testing.T) {
	if _, err := NewProbEngine(0, 10, 1, func(int, float64) float64 { return 0 }); err == nil {
		t.Error("zero cores accepted")
	}
	if _, err := NewProbEngine(4, 0, 1, func(int, float64) float64 { return 0 }); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := NewProbEngine(4, 10, 1, nil); err == nil {
		t.Error("nil weight fn accepted")
	}
	e, _ := NewProbEngine(4, 10, 1, func(int, float64) float64 { return 0 })
	if err := e.Observe([]float64{1}); err == nil {
		t.Error("wrong observation length accepted")
	}
	if err := e.Update(80, 85, []float64{1}); err == nil {
		t.Error("wrong update length accepted")
	}
}

func TestProbEngineAllHotFallsBackToUniform(t *testing.T) {
	e, _ := NewProbEngine(4, 5, 1, func(int, float64) float64 { return -1 })
	hot := []float64{90, 91, 92, 93}
	e.Observe(hot)
	if err := e.Update(80, 85, hot); err != nil {
		t.Fatal(err)
	}
	for _, p := range e.Probabilities() {
		if math.Abs(p-0.25) > 1e-9 {
			t.Errorf("all-hot fallback should be uniform, got %v", e.Probabilities())
		}
	}
}

func TestProbEngineWindowAverage(t *testing.T) {
	e, _ := NewProbEngine(1, 3, 1, func(int, float64) float64 { return 0 })
	e.Observe([]float64{60})
	e.Observe([]float64{70})
	if got := e.AvgTemp(0); math.Abs(got-65) > 1e-9 {
		t.Errorf("AvgTemp = %g, want 65", got)
	}
	e.Observe([]float64{80})
	e.Observe([]float64{90}) // evicts 60
	if got := e.AvgTemp(0); math.Abs(got-80) > 1e-9 {
		t.Errorf("AvgTemp after eviction = %g, want 80", got)
	}
}

func TestHybridComposition(t *testing.T) {
	ar, _ := NewAdaptRand(8, 3)
	h, err := NewHybrid(ar, NewDVFSTT())
	if err != nil {
		t.Fatal(err)
	}
	if h.Name() != "AdaptRand&DVFS_TT" {
		t.Errorf("hybrid name = %q", h.Name())
	}
	v := testView(t, 8, []float64{90, 60, 60, 60, 60, 60, 60, 60})
	d := h.Tick(v)
	if d.Levels == nil {
		t.Error("hybrid should carry the DVFS decision")
	}
	if d.Levels[0] != 1 {
		t.Errorf("hot core should step down, got level %d", d.Levels[0])
	}
	// Allocation must come from the probabilistic allocator: after the
	// tick above, core 0 is above threshold and must never be selected.
	for i := 0; i < 30; i++ {
		if c := h.AssignCore(v, workload.Job{ID: i}); c == 0 {
			t.Fatal("hybrid assigned a job to the above-threshold core")
		}
	}
}

func TestHybridValidation(t *testing.T) {
	if _, err := NewHybrid(nil, NewDVFSTT()); err == nil {
		t.Error("nil allocator accepted")
	}
}

func TestDPMTimeout(t *testing.T) {
	d := DefaultDPM()
	if d.ShouldSleep(0.1) {
		t.Error("should not sleep before timeout")
	}
	if !d.ShouldSleep(0.3) {
		t.Error("should sleep at timeout")
	}
	off := DPM{TimeoutS: 0}
	if off.ShouldSleep(100) {
		t.Error("zero timeout disables DPM")
	}
}

// TestRegistryNamesAreUnique builds each policy this package offers on
// its own — the paper's seven baselines, DVFS_Rel and the MPC pair —
// and checks that no two report the same name.
func TestRegistryNamesAreUnique(t *testing.T) {
	ar, err := NewAdaptRand(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	ps := []Policy{
		NewDefault(),
		NewCGate(),
		NewDVFSTT(),
		NewDVFSUtil(),
		NewDVFSFLP(),
		NewDVFSRel(),
		NewMPCThermal(),
		NewMPCRel(),
		NewMigr(),
		ar,
	}
	seen := make(map[string]bool)
	for _, p := range ps {
		if seen[p.Name()] {
			t.Errorf("duplicate policy name %q", p.Name())
		}
		seen[p.Name()] = true
	}
}

// TestProbabilitiesInto pins the in-place distribution read: it must
// match the allocating form, fall back to uniform when the state has
// drained, reject wrong-length destinations loudly, and — being the
// per-tick instrumentation hook — allocate nothing.
func TestProbabilitiesInto(t *testing.T) {
	eng, err := NewProbEngine(4, 3, 1, func(int, float64) float64 { return 0.1 })
	if err != nil {
		t.Fatal(err)
	}
	temps := []float64{60, 70, 80, 90}
	if err := eng.Observe(temps); err != nil {
		t.Fatal(err)
	}
	if err := eng.Update(80, 85, temps); err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 4)
	eng.ProbabilitiesInto(dst)
	want := eng.Probabilities()
	for c := range want {
		if dst[c] != want[c] {
			t.Errorf("core %d: ProbabilitiesInto %g != Probabilities %g", c, dst[c], want[c])
		}
	}
	sum := 0.0
	for _, p := range dst {
		sum += p
	}
	if diff := sum - 1; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("probabilities sum to %g, want 1", sum)
	}
	if avg := testing.AllocsPerRun(100, func() { eng.ProbabilitiesInto(dst) }); avg > 0 {
		t.Errorf("ProbabilitiesInto allocates %.1f per call, want 0", avg)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("wrong-length dst did not panic")
			}
		}()
		eng.ProbabilitiesInto(make([]float64, 3))
	}()
	// Drained state falls back to uniform.
	hot := []float64{90, 90, 90, 90}
	for i := 0; i < 20; i++ {
		if err := eng.Observe(hot); err != nil {
			t.Fatal(err)
		}
		if err := eng.Update(80, 85, hot); err != nil {
			t.Fatal(err)
		}
	}
	eng.ProbabilitiesInto(dst)
	for c, p := range dst {
		if p != 0.25 {
			t.Errorf("drained core %d probability %g, want uniform 0.25", c, p)
		}
	}
}

// TestMigrTickAllocFree pins the migration policy's per-tick cost on
// the thermally interesting path: with hot cores present (sorting and
// migration planning active) a steady Tick must not allocate once its
// scratch buffers are warm.
func TestMigrTickAllocFree(t *testing.T) {
	p := NewMigr()
	v := testView(t, 8, nil)
	for c := range v.TempsC {
		v.TempsC[c] = 70
		v.QueueLens[c] = 1
	}
	v.TempsC[2], v.TempsC[5] = 90, 88 // two hot cores, queued work
	p.Tick(v)                         // warm the scratch
	if avg := testing.AllocsPerRun(100, func() { p.Tick(v) }); avg > 0 {
		t.Errorf("Migr.Tick allocates %.1f per call with hot cores, want 0", avg)
	}
	d := p.Tick(v)
	if len(d.Migrations) != 2 {
		t.Fatalf("expected 2 migrations, got %d", len(d.Migrations))
	}
}
