package sim

import (
	"errors"
	"io"
	"reflect"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/policy"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// batchLaneCfgs builds K co-schedulable configs over one stack: same
// experiment, duration, and (default cached) solver — so the transient
// factorizations are one shared *Cholesky — with policies and seeds
// varying per lane. A fresh call returns fresh policy instances, so
// the same lane set can be run twice independently.
func batchLaneCfgs(t *testing.T) []Config {
	t.Helper()
	b, err := workload.ByName("Web-med")
	if err != nil {
		t.Fatal(err)
	}
	pols := []policy.Policy{policy.NewDefault(), policy.NewDVFSTT(), policy.NewMigr()}
	cfgs := make([]Config, len(pols))
	for i, p := range pols {
		cfgs[i] = Config{
			Exp:       floorplan.EXP2,
			Policy:    p,
			Bench:     b,
			DurationS: 10,
			Seed:      int64(i + 1),
		}
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

	got, err := RunBatch(batchLaneCfgs(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("RunBatch returned %d results, want %d", len(got), len(want))
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
		cfgs[0].DurationS = 4
		cfgs[1].TrackLifetime = true
		cfgs[2].DurationS = 7
		cfgs[3].Policy = policy.NewMPCThermal()
		cfgs[3].DurationS = 7
		cfgs[4].Policy = policy.NewCGate()
		cfgs[4].DurationS = 4
		return cfgs
	}
	requireOneBatch(t, mk())
	got, err := RunBatch(mk())
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
// a factorization (a dense solver lane, which steps alone in
// lockstep), alone or beside a lane of another duration that retires
// mid-batch, still produce exactly the per-run results.
func TestRunBatchFallsBack(t *testing.T) {
	var want []*Result
	for _, mixedDurations := range []bool{true, false} {
		mk := func() []Config {
			cfgs := batchLaneCfgs(t)
			if mixedDurations {
				cfgs[1].DurationS = 20 // the other lanes retire at tick 100
			}
			cfgs[2].Solver = thermal.SolverDense
			return cfgs
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
		got, err := RunBatch(mk())
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
	single, err := RunBatch(batchLaneCfgs(t)[:1])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(single[0], want[0]) {
		t.Errorf("single-lane batch differs from sequential Run")
	}
	if res, err := RunBatch(nil); err != nil || len(res) != 0 {
		t.Errorf("empty batch: got %d results, err %v", len(res), err)
	}
}

// TestBatchedTickLoopAllocationContract extends the zero-allocation
// contract to the lockstep driver: a steady-state batched tick — K
// engine pre-phases, one panel solve, K post-phases — must stay within
// the same per-lane allocation budget the sequential tick is held to.
func TestBatchedTickLoopAllocationContract(t *testing.T) {
	pols := []policy.Policy{policy.NewDefault(), policy.NewDVFSTT(), policy.NewCGate()}
	engines := make([]*Engine, len(pols))
	for i, p := range pols {
		engines[i] = steadyEngineCfg(t, Config{
			Policy:    p,
			DurationS: 1800,
			Seed:      int64(i + 1),
		})
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
	if budget := 2 * float64(len(engines)); avg > budget {
		t.Errorf("steady-state batched tick averages %.2f allocs for %d lanes, want <= %g", avg, len(engines), budget)
	}
}
