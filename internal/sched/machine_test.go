package sched

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/workload"
)

func job(id int, arrival, work float64) workload.Job {
	return workload.Job{ID: id, ArrivalS: arrival, WorkS: work}
}

func fullSpeed(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 1
	}
	return s
}

// advance runs m.AdvanceInto and returns the per-core utilizations and
// copies of the jobs that finished during it, in completion order. A
// finished job's object goes back to the machine's pool, where the
// next Enqueue reuses it, so the copies are taken by value right away.
func advance(t *testing.T, m *Machine, dt float64, speed []float64) ([]float64, []QueuedJob) {
	t.Helper()
	before := len(m.pool)
	utils := make([]float64, m.NumCores())
	if err := m.AdvanceInto(utils, dt, speed); err != nil {
		t.Fatal(err)
	}
	var done []QueuedJob
	for _, j := range m.pool[before:] {
		done = append(done, *j)
	}
	return utils, done
}

func TestNewMachineValidation(t *testing.T) {
	if _, err := NewMachine(0, 0.001); err == nil {
		t.Error("zero cores accepted")
	}
	if _, err := NewMachine(4, -1); err == nil {
		t.Error("negative migration cost accepted")
	}
}

func TestEnqueueAndAdvanceCompletesJob(t *testing.T) {
	m, _ := NewMachine(2, 0.001)
	if err := m.Enqueue(job(0, 0, 0.05), 0); err != nil {
		t.Fatal(err)
	}
	utils, done := advance(t, m, 0.1, fullSpeed(2))
	if math.Abs(utils[0]-0.5) > 1e-9 {
		t.Errorf("core 0 util = %g, want 0.5 (50 ms of work in a 100 ms tick)", utils[0])
	}
	if utils[1] != 0 {
		t.Errorf("idle core util = %g, want 0", utils[1])
	}
	if len(done) != 1 {
		t.Fatalf("%d jobs completed, want 1", len(done))
	}
	if math.Abs(done[0].CompletionS-0.05) > 1e-9 {
		t.Errorf("completion at %g, want 0.05", done[0].CompletionS)
	}
}

func TestAdvanceRespectsSpeed(t *testing.T) {
	m, _ := NewMachine(1, 0)
	m.Enqueue(job(0, 0, 0.085), 0)
	// At 0.85 speed, 0.085 s of work takes exactly 0.1 s of wall clock.
	utils, done := advance(t, m, 0.1, []float64{0.85})
	if math.Abs(utils[0]-1.0) > 1e-9 {
		t.Errorf("util = %g, want 1.0", utils[0])
	}
	if len(done) != 1 {
		t.Error("job should have just completed")
	}
}

func TestAdvanceZeroSpeedStalls(t *testing.T) {
	m, _ := NewMachine(1, 0)
	m.Enqueue(job(0, 0, 0.05), 0)
	utils, done := advance(t, m, 0.1, []float64{0})
	if utils[0] != 0 {
		t.Errorf("stalled core util = %g, want 0", utils[0])
	}
	if len(done) != 0 {
		t.Error("stalled core completed a job")
	}
	if m.Running(0) == nil || m.Running(0).RemainingS != 0.05 {
		t.Error("stalled job lost progress state")
	}
	// A stalled core with work is NOT idle.
	if m.IdleDurationS(0) != 0 {
		t.Errorf("stalled core reports idle duration %g", m.IdleDurationS(0))
	}
}

func TestMultipleJobsProcessorSharing(t *testing.T) {
	// Equal jobs share the pipeline and finish together: 3 x 0.03 s of
	// work at unit speed completes at t = 0.09.
	m, _ := NewMachine(1, 0)
	m.Enqueue(job(0, 0, 0.03), 0)
	m.Enqueue(job(1, 0, 0.03), 0)
	m.Enqueue(job(2, 0, 0.03), 0)
	_, done := advance(t, m, 0.1, fullSpeed(1))
	if len(done) != 3 {
		t.Fatalf("%d completed, want 3", len(done))
	}
	for _, j := range done {
		if math.Abs(j.CompletionS-0.09) > 1e-9 {
			t.Errorf("job %d completed at %g, want 0.09 (shared pipeline)", j.Job.ID, j.CompletionS)
		}
	}
}

func TestProcessorSharingShortJobNotStuck(t *testing.T) {
	// A short job sharing with a long one completes in 2x its service
	// time instead of waiting for the long job (the T1's fine-grained
	// multithreading behaviour).
	m, _ := NewMachine(1, 0)
	m.Enqueue(job(0, 0, 1.0), 0)  // long
	m.Enqueue(job(1, 0, 0.05), 0) // short
	_, done := advance(t, m, 0.2, fullSpeed(1))
	if len(done) != 1 || done[0].Job.ID != 1 {
		t.Fatalf("expected the short job to finish first, got %v", done)
	}
	if math.Abs(done[0].CompletionS-0.1) > 1e-9 {
		t.Errorf("short job completed at %g, want 0.1 (sharing with one other)", done[0].CompletionS)
	}
	long := m.Running(0)
	if long == nil || math.Abs(long.RemainingS-(1.0-0.05-0.1)) > 1e-9 {
		t.Errorf("long job remaining = %v, want 0.85", long)
	}
}

func TestMigrateToIdleCore(t *testing.T) {
	m, _ := NewMachine(2, 0.001)
	m.Enqueue(job(0, 0, 0.05), 0)
	if err := m.Migrate(0, 1); err != nil {
		t.Fatal(err)
	}
	if m.Running(0) != nil {
		t.Error("source core still has the job")
	}
	j := m.Running(1)
	if j == nil {
		t.Fatal("destination core has no job")
	}
	if math.Abs(j.RemainingS-0.051) > 1e-12 {
		t.Errorf("remaining = %g, want 0.051 (work + 1 ms migration cost)", j.RemainingS)
	}
	if j.Migrations != 1 || m.ComputeStats().TotalMigration != 1 {
		t.Error("migration count not recorded")
	}
}

func TestMigrateSwapsWhenBothBusy(t *testing.T) {
	m, _ := NewMachine(2, 0.001)
	m.Enqueue(job(0, 0, 0.05), 0)
	m.Enqueue(job(1, 0, 0.08), 1)
	if err := m.Migrate(0, 1); err != nil {
		t.Fatal(err)
	}
	if m.Running(0).Job.ID != 1 || m.Running(1).Job.ID != 0 {
		t.Error("jobs were not swapped")
	}
	if m.ComputeStats().TotalMigration != 2 {
		t.Errorf("swap should count 2 migrations, got %d", m.ComputeStats().TotalMigration)
	}
}

func TestMigrateEdgeCases(t *testing.T) {
	m, _ := NewMachine(2, 0.001)
	if err := m.Migrate(0, 1); err != nil {
		t.Errorf("migrating from empty queue should be a no-op, got %v", err)
	}
	if err := m.Migrate(0, 0); err != nil {
		t.Errorf("self-migration should be a no-op, got %v", err)
	}
	if err := m.Migrate(-1, 0); err == nil {
		t.Error("out-of-range core accepted")
	}
	if m.ComputeStats().TotalMigration != 0 {
		t.Error("no-op migrations were counted")
	}
}

func TestIdleTracking(t *testing.T) {
	m, _ := NewMachine(1, 0)
	// Idle from t=0.
	advance(t, m, 0.1, fullSpeed(1))
	if got := m.IdleDurationS(0); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("idle duration = %g, want 0.1", got)
	}
	m.Enqueue(job(0, 0.1, 0.25), 0)
	if m.IdleDurationS(0) != 0 {
		t.Error("busy core reports nonzero idle duration")
	}
	advance(t, m, 0.1, fullSpeed(1)) // 0.15 left
	advance(t, m, 0.1, fullSpeed(1)) // 0.05 left
	advance(t, m, 0.1, fullSpeed(1)) // finishes mid-tick
	if m.IdleDurationS(0) <= 0 {
		t.Error("core should be idle again after finishing")
	}
}

func TestComputeStats(t *testing.T) {
	m, _ := NewMachine(1, 0)
	m.Enqueue(job(0, 0, 0.1), 0)
	m.Enqueue(job(1, 0, 0.1), 0)
	advance(t, m, 0.2, fullSpeed(1))
	st := m.ComputeStats()
	if st.Completed != 2 {
		t.Fatalf("completed = %d, want 2", st.Completed)
	}
	// Under processor sharing both 0.1 s jobs finish together at 0.2.
	if math.Abs(st.MeanResponseS-0.2) > 1e-9 {
		t.Errorf("mean response = %g, want 0.2", st.MeanResponseS)
	}
	if math.Abs(st.MeanServiceS-0.1) > 1e-9 {
		t.Errorf("mean service = %g, want 0.1", st.MeanServiceS)
	}
	if math.Abs(st.MeanSlowdown-2.0) > 1e-9 {
		t.Errorf("mean slowdown = %g, want 2.0", st.MeanSlowdown)
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	m, _ := NewMachine(1, 0)
	st := m.ComputeStats()
	if st.Completed != 0 || st.MeanResponseS != 0 {
		t.Error("empty machine should have zero stats")
	}
}

func TestAdvanceValidation(t *testing.T) {
	m, _ := NewMachine(2, 0)
	if err := m.AdvanceInto(make([]float64, 2), 0, fullSpeed(2)); err == nil {
		t.Error("zero dt accepted")
	}
	if err := m.AdvanceInto(make([]float64, 2), 0.1, fullSpeed(1)); err == nil {
		t.Error("wrong speed vector length accepted")
	}
	if err := m.AdvanceInto(make([]float64, 2), 0.1, []float64{-1, 0}); err == nil {
		t.Error("negative speed accepted")
	}
}

func TestEnqueueValidation(t *testing.T) {
	m, _ := NewMachine(2, 0)
	if err := m.Enqueue(job(0, 0, 1), 5); err == nil {
		t.Error("out-of-range core accepted")
	}
}

func TestMemActivity(t *testing.T) {
	m, _ := NewMachine(2, 0)
	j := job(0, 0, 1)
	j.MemActivity = 0.7
	m.Enqueue(j, 1)
	ma := []float64{-1, -1} // stale values an idle core must clear
	m.MemActivityInto(ma)
	if ma[0] != 0 || ma[1] != 0.7 {
		t.Errorf("MemActivity = %v, want [0 0.7]", ma)
	}
}

func TestQueueLens(t *testing.T) {
	m, _ := NewMachine(3, 0)
	m.Enqueue(job(0, 0, 1), 0)
	m.Enqueue(job(1, 0, 1), 0)
	m.Enqueue(job(2, 0, 1), 2)
	lens := make([]int, 3)
	m.QueueLensInto(lens)
	if lens[0] != 2 || lens[1] != 0 || lens[2] != 1 {
		t.Errorf("QueueLens = %v", lens)
	}
	if n := m.QueueLen(0) + m.QueueLen(1) + m.QueueLen(2); n != 3 {
		t.Errorf("queued jobs = %d, want 3", n)
	}
}

// Conservation: work in equals work completed plus work remaining,
// regardless of the migration pattern.
func TestWorkConservation(t *testing.T) {
	m, _ := NewMachine(4, 0) // zero migration cost for exact accounting
	totalIn := 0.0
	for i := 0; i < 20; i++ {
		w := 0.01 * float64(i+1)
		m.Enqueue(job(i, 0, w), i%4)
		totalIn += w
	}
	done := 0.0
	for tick := 0; tick < 10; tick++ {
		m.Migrate(tick%4, (tick+1)%4)
		_, finished := advance(t, m, 0.05, fullSpeed(4))
		for _, j := range finished {
			done += j.Job.WorkS
		}
	}
	remaining := 0.0
	for c := 0; c < 4; c++ {
		for i := 0; i < m.QueueLen(c); i++ {
			// Walk queues through Running + internal state via QueueLen.
		}
	}
	// Account remaining via executed time: total busy time equals work done.
	_ = remaining
	totalOut := done
	for c := 0; c < 4; c++ {
		for _, j := range m.queues[c] {
			totalOut += j.Job.WorkS - j.RemainingS
		}
		for _, j := range m.queues[c] {
			totalOut += j.RemainingS
		}
	}
	if math.Abs(totalOut-totalIn) > 1e-9 {
		t.Errorf("work not conserved: in %g, out %g", totalIn, totalOut)
	}
}

// TestSaveLoadAcrossCompletions pins the completion sums through a
// copy: a machine copied after jobs have finished carries their sums,
// not the jobs, and a machine copied from it — a fresh one, or the
// original rewound — ends with ComputeStats equal (==) to the
// uninterrupted machine's.
func TestSaveLoadAcrossCompletions(t *testing.T) {
	const n, steps, mid = 4, 300, 150
	rng := rand.New(rand.NewSource(7))
	type op struct {
		kind, a, b int
		work       float64
		speeds     []float64
	}
	ops := make([]op, steps)
	for i := range ops {
		o := op{kind: rng.Intn(4), a: rng.Intn(n), b: rng.Intn(n), work: 0.01 + rng.Float64()*0.3}
		o.speeds = make([]float64, n)
		for c := range o.speeds {
			o.speeds[c] = []float64{0, 0.85, 0.95, 1}[rng.Intn(4)]
		}
		ops[i] = o
	}
	apply := func(m *Machine, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			o := ops[i]
			var err error
			switch o.kind {
			case 0:
				err = m.Enqueue(job(i, m.NowS(), o.work), o.a)
			case 1:
				err = m.Migrate(o.a, o.b)
			case 2:
				err = m.MoveTail(o.a, o.b)
			default:
				err = m.AdvanceInto(make([]float64, n), 0.1, o.speeds)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	newM := func() *Machine {
		m, err := NewMachine(n, 0.001)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	ref := newM()
	apply(ref, 0, steps)
	want := ref.ComputeStats()

	m := newM()
	apply(m, 0, mid)
	atSave := m.ComputeStats().Completed
	saved := newM()
	if err := saved.CopyFrom(m); err != nil {
		t.Fatal(err)
	}
	queued := 0
	for c := 0; c < n; c++ {
		queued += saved.QueueLen(c)
	}
	if atSave == 0 || queued == 0 || want.Completed <= atSave {
		t.Fatalf("want completions before and after the copy and queued jobs at it: %d before, %d in all, %d queued",
			atSave, want.Completed, queued)
	}
	apply(m, mid, steps)
	if got := m.ComputeStats(); got != want {
		t.Fatalf("machine with a mid-run copy: %+v, want %+v", got, want)
	}

	fresh := newM()
	if err := fresh.CopyFrom(saved); err != nil {
		t.Fatal(err)
	}
	apply(fresh, mid, steps)
	if got := fresh.ComputeStats(); got != want {
		t.Errorf("fresh machine copied mid-run: %+v, want %+v", got, want)
	}
	if err := m.CopyFrom(saved); err != nil {
		t.Fatal(err)
	}
	apply(m, mid, steps)
	if got := m.ComputeStats(); got != want {
		t.Errorf("rewound machine: %+v, want %+v", got, want)
	}
}
