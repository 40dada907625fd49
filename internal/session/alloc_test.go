package session

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/sweep"
)

// TestSessionTickAllocationContract pins the run core's tick path to
// the zero-alloc tick contract the sweep runner holds (0 allocs/tick):
// a step plus the tick-state capture a frame reads must not allocate in
// steady state.
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
	if avg != 0 {
		t.Fatalf("observed %.2f allocs/tick through the run core's step and tick-state capture, want 0", avg)
	}
	if len(ts.CoreTempsC) == 0 {
		t.Fatal("tick state captured no temperatures")
	}
}

// TestRunMarshalFrameAllocationFree pins a steady frame encode to zero
// allocations: once the run's buffer holds a frame, marshalFrame
// captures the tick state and append-encodes into it in place.
func TestRunMarshalFrameAllocationFree(t *testing.T) {
	job := sweep.Job{Scenario: sweep.Scenario{Exp: floorplan.EXP1}, Policy: "DVFS_TT", Bench: "Web-med", Seed: 1, DurationS: 60}
	m := newTestManager(t, Config{})
	r, err := m.newRun(job, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := r.step(); err != nil {
			t.Fatal(err)
		}
		if _, err := r.marshalFrame(r.eng.TickIndex()); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := r.marshalFrame(r.eng.TickIndex()); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady marshalFrame made %.2f allocs/frame, want 0", avg)
	}
}

// TestSessionStreamAmortizedAllocs bounds the whole streaming loop with
// a frame every tick and checkpoints off. A warm-up stream of the same
// job first caches the shared thermal model and the trace; after it,
// the mutex handshakes, event drains, tick-state capture and frame
// encoding are allocation-free, so a stream stays within the engine's
// own per-tick allocations plus its header and terminal.
func TestSessionStreamAmortizedAllocs(t *testing.T) {
	job := sweep.Job{Scenario: sweep.Scenario{Exp: floorplan.EXP1}, Policy: "DVFS_TT", Bench: "Web-med", Seed: 1, DurationS: 60}
	m := newTestManager(t, Config{})
	discard := func(string, []byte) error { return nil }
	open := func() *Session {
		s, err := m.Open(OpenRequest{Job: job, CadenceTicks: 1, CheckpointTicks: -1})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if err := open().Stream(context.Background(), discard, nil); err != nil {
		t.Fatal(err)
	}
	s := open()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := s.Stream(context.Background(), discard, nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	ticks := float64(s.TotalTicks())
	perTick := float64(after.Mallocs-before.Mallocs) / ticks
	if perTick > 0.5 {
		t.Fatalf("session stream allocated %.2f objects/tick over %.0f ticks, budget is 0.5", perTick, ticks)
	}
}
