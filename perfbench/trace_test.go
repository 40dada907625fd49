package main

import (
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// TestSelfTimes checks the self-time arithmetic: overlapping children
// count once, and a child sticking out of its parent counts only inside.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "job", Parent: -1, Start: ms(0), End: ms(100)},
		{Name: "a", Parent: 0, Start: ms(10), End: ms(30)},
		{Name: "b", Parent: 0, Start: ms(20), End: ms(50)},
		{Name: "c", Parent: 0, Start: ms(90), End: ms(120)},
		{Name: "a.1", Parent: 1, Start: ms(12), End: ms(18)},
		{Name: "open", Parent: 0, Start: ms(60), End: -1},
	}
	want := []time.Duration{ms(50), ms(14), ms(30), ms(30), ms(6), 0}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

// TestCheckLayerBudget pins that the probe's layer budget can fail:
// layer costs within the slack pass, an over-budget set does not, and
// per-job dispatch costs count at their rate per tick.
func TestCheckLayerBudget(t *testing.T) {
	fig := map[string]float64{
		"policy.tick_ns_per_tick":   1000,
		"power.compute_ns_per_tick": 2000,
		"thermal.step_ns_per_tick":  3000,
		"sim.step_self_ns_per_tick": 1e9, // not a layer of the sum
	}
	if err := checkLayerBudget(fig, 0, 6000); err != nil {
		t.Fatalf("layers summing to the Step time failed: %v", err)
	}
	if err := checkLayerBudget(fig, 0, 6000/layerSlack-1); err == nil {
		t.Fatal("layers summing to more than the slack allows passed")
	}
	fig["policy.assign_ns_per_job"], fig["sched.enqueue_ns_per_job"] = 3000, 1000
	if got := layerSum(fig, 0.5); got != 8000 {
		t.Fatalf("layerSum with dispatches = %g, want 8000", got)
	}
	if checkLayerBudget(fig, 0, 5000) != nil || checkLayerBudget(fig, 0.5, 5000) == nil {
		t.Fatal("dispatch costs did not count against the budget")
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", "g", -1)
	tr.end(id)
	tr.record("y", "g", id, time.Now(), time.Second)
	if id != -1 || tr.snapshot() != nil || tr.write("unused") != nil {
		t.Fatal("nil tracer recorded something")
	}
}

// TestLastFullyBusy checks the tail-idle boundary of a two-worker pool.
func TestLastFullyBusy(t *testing.T) {
	units := []unit{
		{start: ms(0), end: ms(10)},
		{start: ms(0), end: ms(5)},
		{start: ms(5), end: ms(12)}, // hand-over at 5 ms keeps both busy
	}
	if got := lastFullyBusy(units, 2); got != ms(10) {
		t.Fatalf("lastFullyBusy = %v, want 10ms", got)
	}
	if got := lastFullyBusy(units[:1], 2); got != 0 {
		t.Fatalf("a pool that never filled: %v, want 0", got)
	}
}
