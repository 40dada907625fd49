package sim

import (
	"context"
	"errors"
	"io"
	"reflect"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/policy"
)

// batchLaneCfgs builds K co-schedulable configs over one stack: same
// experiment, duration, and (default cached) solver — so the transient
// factorizations are one shared *Cholesky — with policies and seeds
// varying per lane. A fresh call returns fresh policy instances, so
// the same lane set can be run twice independently.
func batchLaneCfgs(t *testing.T) []Config {
	t.Helper()
	pols := []policy.Policy{policy.NewDefault(), policy.NewDVFSTT(), policy.NewMigr()}
	cfgs := make([]Config, len(pols))
	for i, p := range pols {
		cfgs[i] = testConfig(t, floorplan.EXP2, p, "Web-med", 10, int64(i+1))
	}
	return cfgs
}

// TestRunBatchMatchesRun pins the batching contract end to end: the
// results of a lockstep batch must be deeply identical — every metric,
// temperature field, and scheduler stat bit for bit — to running each
// config through Run alone.
func TestRunBatchMatchesRun(t *testing.T) {
	seq := batchLaneCfgs(t)
	want := make([]*Result, len(seq))
	for i := range seq {
		r, err := Run(seq[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	// The lanes really must take the batched path: their engines share
	// one factorization.
	requireOneBatch(t, batchLaneCfgs(t))

	got, err := RunBatchContext(context.Background(), batchLaneCfgs(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("RunBatchContext returned %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("lane %d: batched result differs from sequential Run\n got: %+v\nwant: %+v", i, got[i], want[i])
		}
	}
}

// requireOneBatch fails the test unless the configs' engines share one
// panel batch.
func requireOneBatch(t *testing.T, cfgs []Config) {
	t.Helper()
	engines := make([]*Engine, len(cfgs))
	for i := range cfgs {
		e, err := newEngine(cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	if d, err := newBatchDriver(engines); err != nil || d.batch == nil {
		t.Fatalf("lanes do not share one panel batch: %v", err)
	}
}

// stepAlone runs cfg's engine by itself through Step and Finish, the
// reference a lockstep lane must match.
func stepAlone(t *testing.T, cfg Config) *Result {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for {
		err := e.Step()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunBatchMixedDurations pins lane retirement: cached lanes of
// three durations — one an MPC planner with lockstep rollouts of its
// own, one tracking lifetime — share one panel batch, the shorter runs
// retire at their last tick, and every result is deeply identical to
// its engine stepped alone.
func TestRunBatchMixedDurations(t *testing.T) {
	mk := func() []Config {
		cfgs := append(batchLaneCfgs(t), batchLaneCfgs(t)[:2]...)
		// shorten runs lane i for d seconds on the trace of its seed.
		shorten := func(i int, d float64, seed int64) {
			cfgs[i].DurationS = d
			cfgs[i] = withTrace(t, cfgs[i], "Web-med", seed)
		}
		shorten(0, 4, 1)
		cfgs[1].TrackLifetime = true
		shorten(2, 7, 3)
		cfgs[3].Policy = policy.NewMPCThermal()
		shorten(3, 7, 1)
		cfgs[4].Policy = policy.NewCGate()
		shorten(4, 4, 2)
		return cfgs
	}
	requireOneBatch(t, mk())
	got, err := RunBatchContext(context.Background(), mk())
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range mk() {
		want := stepAlone(t, cfg)
		if ticks := int(cfg.DurationS * 10); got[i].Ticks != ticks {
			t.Errorf("lane %d ran %d ticks, want %d", i, got[i].Ticks, ticks)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("lane %d (%s, %gs): batched result differs from the engine stepped alone", i, want.PolicyName, cfg.DurationS)
		}
	}
}

// TestRunBatchFallsBack checks the fallbacks: lanes that cannot share
// a factorization (an EXP-1 lane among EXP-2 lanes, so every lane
// steps alone in lockstep), alone or beside a lane of another duration
// that retires mid-batch, still produce exactly the per-run results.
func TestRunBatchFallsBack(t *testing.T) {
	var want []*Result
	for _, mixedDurations := range []bool{true, false} {
		mk := func() []Config {
			cfgs := batchLaneCfgs(t)
			if mixedDurations {
				cfgs[1].DurationS = 20 // the other lanes retire at tick 100
				cfgs[1] = withTrace(t, cfgs[1], "Web-med", 2)
			}
			cfgs[2].StackSpec = expSpec(t, floorplan.EXP1)
			cfgs[2] = withTrace(t, cfgs[2], "Web-med", 3)
			return cfgs
		}
		engines := make([]*Engine, 0, 3)
		for _, cfg := range mk() {
			e, err := newEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			engines = append(engines, e)
		}
		d, err := newBatchDriver(engines)
		if err != nil {
			t.Fatal(err)
		}
		if d.batch != nil {
			t.Fatal("mixed stacks share a panel batch; want the per-lane fallback")
		}
		seq := mk()
		want = make([]*Result, len(seq))
		for i := range seq {
			r, err := Run(seq[i])
			if err != nil {
				t.Fatal(err)
			}
			want[i] = r
		}
		got, err := RunBatchContext(context.Background(), mk())
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("mixed durations %v, lane %d: fallback result differs from sequential Run", mixedDurations, i)
			}
		}
	}
	// A single-config batch degenerates to Run.
	single, err := RunBatchContext(context.Background(), batchLaneCfgs(t)[:1])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(single[0], want[0]) {
		t.Errorf("single-lane batch differs from sequential Run")
	}
	if res, err := RunBatchContext(context.Background(), nil); err != nil || len(res) != 0 {
		t.Errorf("empty batch: got %d results, err %v", len(res), err)
	}
}

// TestBatchedTickLoopAllocationContract extends the zero-allocation
// contract to the lockstep driver: a steady-state batched tick — K
// engine pre-phases, one panel solve, K post-phases — must allocate
// nothing, as the sequential tick does.
func TestBatchedTickLoopAllocationContract(t *testing.T) {
	pols := []policy.Policy{policy.NewDefault(), policy.NewDVFSTT(), policy.NewCGate()}
	engines := make([]*Engine, len(pols))
	for i, p := range pols {
		engines[i] = steadyEngineCfg(t, Config{Policy: p, DurationS: 1800})
	}
	d, err := newBatchDriver(engines)
	if err != nil {
		t.Fatal(err)
	}
	tick := 0
	for ; tick < 50; tick++ { // settle into steady state
		if err := d.tick(tick, len(engines)); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := d.tick(tick, len(engines)); err != nil {
			t.Fatal(err)
		}
		tick++
	})
	if avg != 0 {
		t.Errorf("steady-state batched tick averages %.2f allocs for %d lanes, want 0", avg, len(engines))
	}
}
