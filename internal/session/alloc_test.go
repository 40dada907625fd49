package session

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/sweep"
)

// TestSessionTickAllocationContract pins the run core's tick path to
// the repo's zero-alloc tick budget (<= 2 allocs/tick, matching the
// hot-path contract the sweep runner holds): a step plus the tick-state
// capture a frame reads must not add steady-state allocations.
func TestSessionTickAllocationContract(t *testing.T) {
	job := sweep.Job{Scenario: sweep.Scenario{Exp: floorplan.EXP1}, Policy: "DVFS_TT", Bench: "Web-med", Seed: 1, DurationS: 60}
	m := newTestManager(t, Config{})
	r, err := m.newRun(job, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := &r.frame.TickState
	for i := 0; i < 100; i++ { // warm up buffers, queues, tick-state slices
		if _, err := r.step(); err != nil {
			t.Fatal(err)
		}
		r.eng.TickStateInto(ts)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := r.step(); err != nil {
			t.Fatal(err)
		}
		r.eng.TickStateInto(ts)
	})
	if avg > 2 {
		t.Fatalf("observed %.2f allocs/tick through the run core's step and tick-state capture, budget is 2", avg)
	}
	if len(ts.CoreTempsC) == 0 {
		t.Fatal("tick state captured no temperatures")
	}
}

// TestSessionStreamAmortizedAllocs bounds the whole streaming loop:
// with frames at the final tick only and checkpoints off, a session
// stream must stay within a few allocations per tick — the mutex
// handshakes, tick-state capture, and event drains between frames are
// allocation-free.
func TestSessionStreamAmortizedAllocs(t *testing.T) {
	job := sweep.Job{Scenario: sweep.Scenario{Exp: floorplan.EXP1}, Policy: "DVFS_TT", Bench: "Web-med", Seed: 1, DurationS: 60}
	m := newTestManager(t, Config{})
	s, err := m.Open(OpenRequest{Job: job, CadenceTicks: 600, CheckpointTicks: -1})
	if err != nil {
		t.Fatal(err)
	}
	discard := func(string, []byte) error { return nil }
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := s.Stream(context.Background(), discard); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	ticks := float64(s.TotalTicks())
	perTick := float64(after.Mallocs-before.Mallocs) / ticks
	if perTick > 3 {
		t.Fatalf("session stream allocated %.2f objects/tick over %.0f ticks, budget is 3", perTick, ticks)
	}
}
