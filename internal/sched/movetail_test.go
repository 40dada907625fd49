package sched

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/workload"
)

func TestMoveTail(t *testing.T) {
	m, _ := NewMachine(2, 0.001)
	m.Enqueue(job(0, 0, 0.5), 0)
	m.Enqueue(job(1, 0, 0.3), 0)
	if err := m.MoveTail(0, 1); err != nil {
		t.Fatal(err)
	}
	if m.QueueLen(0) != 1 || m.QueueLen(1) != 1 {
		t.Fatalf("queue lengths %d and %d after tail move", m.QueueLen(0), m.QueueLen(1))
	}
	moved := m.Running(1)
	if moved.Job.ID != 1 {
		t.Errorf("moved job %d, want the tail job 1", moved.Job.ID)
	}
	if math.Abs(moved.RemainingS-0.301) > 1e-12 {
		t.Errorf("migration cost not applied: remaining %g", moved.RemainingS)
	}
	if m.ComputeStats().TotalMigration != 1 {
		t.Errorf("migrations = %d", m.ComputeStats().TotalMigration)
	}
}

func TestMoveTailEdgeCases(t *testing.T) {
	m, _ := NewMachine(2, 0.001)
	if err := m.MoveTail(0, 1); err != nil {
		t.Errorf("empty-queue tail move should be a no-op, got %v", err)
	}
	if err := m.MoveTail(1, 1); err != nil {
		t.Errorf("self move should be a no-op, got %v", err)
	}
	if err := m.MoveTail(-1, 0); err == nil {
		t.Error("out-of-range accepted")
	}
}

func TestProcessorSharingSpeedChange(t *testing.T) {
	// A job advancing under changing DVFS speeds accumulates exactly the
	// work the speeds allow.
	m, _ := NewMachine(1, 0)
	m.Enqueue(job(0, 0, 1.0), 0)
	advance(t, m, 0.5, []float64{1.0})  // 0.5 done
	advance(t, m, 0.5, []float64{0.85}) // 0.425 done
	j := m.Running(0)
	if j == nil {
		t.Fatal("job finished early")
	}
	if math.Abs(j.RemainingS-(1.0-0.5-0.425)) > 1e-9 {
		t.Errorf("remaining = %g, want 0.075", j.RemainingS)
	}
}

// Property: under random enqueue/advance/migrate sequences with zero
// migration cost, total work is conserved and utilizations stay in [0,1].
func TestRandomOperationsConserveWork(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(6)
		m, err := NewMachine(n, 0)
		if err != nil {
			t.Fatal(err)
		}
		totalIn := 0.0
		id := 0
		var completed []QueuedJob
		for step := 0; step < 50; step++ {
			switch rng.Intn(4) {
			case 0:
				w := 0.01 + rng.Float64()*0.5
				m.Enqueue(workload.Job{ID: id, ArrivalS: m.NowS(), WorkS: w}, rng.Intn(n))
				totalIn += w
				id++
			case 1:
				m.Migrate(rng.Intn(n), rng.Intn(n))
			case 2:
				m.MoveTail(rng.Intn(n), rng.Intn(n))
			default:
				speeds := make([]float64, n)
				for i := range speeds {
					speeds[i] = []float64{0, 0.85, 0.95, 1}[rng.Intn(4)]
				}
				utils, done := advance(t, m, 0.05+rng.Float64()*0.2, speeds)
				completed = append(completed, done...)
				for c, u := range utils {
					if u < -1e-9 || u > 1+1e-9 {
						t.Fatalf("trial %d: core %d utilization %g out of [0,1]", trial, c, u)
					}
				}
			}
		}
		// Conservation (zero migration cost): the work of completed jobs
		// plus the original work of still-queued jobs equals what was
		// enqueued, and no queued job has done negative progress.
		accounted := 0.0
		for _, j := range completed {
			accounted += j.Job.WorkS
			if j.CompletionS < j.Job.ArrivalS {
				t.Fatalf("job %d completed before arrival", j.Job.ID)
			}
		}
		for c := 0; c < n; c++ {
			for _, j := range m.queues[c] {
				accounted += j.Job.WorkS
				if j.RemainingS < -1e-9 || j.RemainingS > j.Job.WorkS+1e-9 {
					t.Fatalf("trial %d: job %d remaining %g outside [0, %g]", trial, j.Job.ID, j.RemainingS, j.Job.WorkS)
				}
			}
		}
		if math.Abs(accounted-totalIn) > 1e-6 {
			t.Fatalf("trial %d: work not conserved: in %g, accounted %g", trial, totalIn, accounted)
		}
	}
}
