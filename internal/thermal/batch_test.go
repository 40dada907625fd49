package thermal

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/floorplan"
)

// TestSubstepCount pins the epsilon-tolerant substep ceiling: an exact
// ratio takes exactly that many substeps (the historical int(dt/sub)+1
// ran one extra — 2 where 1 suffices when sub == dt), a ratio a hair
// under an integer rounds to it instead of paying a spurious ceiling,
// and genuinely fractional ratios take the true ceiling.
func TestSubstepCount(t *testing.T) {
	cases := []struct {
		dt, sub float64
		want    int
	}{
		{0.1, 0.1, 1},                // stability does not bind: one step
		{0.1, 0.05, 2},               // exact multiple
		{0.3, 0.1, 3},                // 2.9999999999999996 in floats: rounds to 3
		{0.1, 0.04, 3},               // 2.5: true ceiling
		{0.1, 0.033, 4},              // 3.0303...: ceiling
		{0.05, 0.1, 1},               // sub exceeds dt: single step covers it
		{0.1, 0.1 / 2.9999999999, 3}, // within epsilon of 3: no +1
	}
	for _, c := range cases {
		if got := substepCount(c.dt, c.sub); got != c.want {
			t.Errorf("substepCount(%g, %g) = %d, want %d", c.dt, c.sub, got, c.want)
		}
	}
}

// TestTransientTempsRoundTrip checks SetTemps/Temps restore integrator
// state: a transient restarted from a snapshot continues on the same
// trajectory. Temps reports rise+ambient and SetTemps stores
// temps-ambient, so the restored rise may differ from the original by
// one ulp — the contract is agreement to rounding noise, not bitwise.
func TestTransientTempsRoundTrip(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP2)
	m, err := NewBlockModel(s, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.NewTransient(0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := uniformCorePower(s, 1.5)
	for i := 0; i < 5; i++ {
		if _, err := tr.Step(p); err != nil {
			t.Fatal(err)
		}
	}
	snap := tr.Temps()

	tr2, err := m.NewTransient(0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr2.SetTemps(snap); err != nil {
		t.Fatal(err)
	}
	close := func(a, b float64) bool {
		return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b))
	}
	for i, v := range tr2.Temps() {
		if !close(v, snap[i]) {
			t.Fatalf("round trip node %d: got %g, want %g", i, v, snap[i])
		}
	}
	for i := 0; i < 5; i++ {
		a, err := tr.Step(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := tr2.Step(p)
		if err != nil {
			t.Fatal(err)
		}
		for j := range a {
			if !close(a[j], b[j]) {
				t.Fatalf("step %d node %d diverged after restore: %g vs %g", i, j, a[j], b[j])
			}
		}
	}
	if err := tr.SetTemps(snap[:1]); err == nil {
		t.Fatal("SetTemps accepted a short vector")
	}
}

// TestTransientBatchMatchesSequential is the batching contract: every
// lane of a TransientBatch must follow the bit-identical trajectory of
// the same integrator stepped alone, across all paper stacks (RCM
// ordering, n < 200) and grid models (minimum-degree ordering), at lane
// counts that reach the panel kernel's 8-lane blocks, 4-lane blocks and
// single-lane tails — 16 is the largest group a sweep dispatches.
func TestTransientBatchMatchesSequential(t *testing.T) {
	type modelCase struct {
		name string
		m    *Model
		s    *floorplan.Stack
	}
	var cases []modelCase
	for _, e := range []floorplan.Experiment{floorplan.EXP1, floorplan.EXP2, floorplan.EXP3, floorplan.EXP4, floorplan.EXP5, floorplan.EXP6} {
		s := floorplan.MustBuild(e)
		m, err := NewBlockModel(s, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, modelCase{e.String(), m, s})
	}
	for _, cells := range []int{8, 16} {
		s := floorplan.MustBuild(floorplan.EXP4)
		m, err := NewGridModel(s, DefaultParams(), cells, cells)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, modelCase{fmt.Sprintf("grid%dx%d", cells, cells), m, s})
	}
	const dt, steps = 0.1, 20
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, k := range []int{3, 13, 16} {
				t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
					powers := make([][]float64, k)
					for l := range powers {
						powers[l] = uniformCorePower(c.s, 0.8+0.7*float64(l))
					}
					// Reference: each lane stepped alone.
					want := make([][]float64, k)
					for l := 0; l < k; l++ {
						tr, err := c.m.NewTransient(dt, nil)
						if err != nil {
							t.Fatal(err)
						}
						dst := make([]float64, c.m.NumNodes)
						for s := 0; s < steps; s++ {
							if err := tr.StepInto(dst, powers[l]); err != nil {
								t.Fatal(err)
							}
						}
						want[l] = append([]float64(nil), dst...)
					}
					// Batched: fresh lanes advanced through the panel solve.
					lanes := make([]*Transient, k)
					for l := range lanes {
						tr, err := c.m.NewTransient(dt, nil)
						if err != nil {
							t.Fatal(err)
						}
						lanes[l] = tr
					}
					batch, err := NewTransientBatch(lanes)
					if err != nil {
						t.Fatal(err)
					}
					if batch.Lanes() != k {
						t.Fatalf("Lanes() = %d, want %d", batch.Lanes(), k)
					}
					dsts := make([][]float64, k)
					for l := range dsts {
						dsts[l] = make([]float64, c.m.NumNodes)
					}
					for s := 0; s < steps; s++ {
						if err := batch.StepInto(dsts, powers); err != nil {
							t.Fatal(err)
						}
					}
					for l := 0; l < k; l++ {
						for i := range want[l] {
							if math.Float64bits(dsts[l][i]) != math.Float64bits(want[l][i]) {
								t.Fatalf("lane %d node %d: batch %g, sequential %g", l, i, dsts[l][i], want[l][i])
							}
						}
					}
				})
			}
		})
	}
}

// TestNewTransientBatchValidation covers the not-batchable cases that
// must fall back to per-integrator stepping.
func TestNewTransientBatchValidation(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP1)
	m, err := NewBlockModel(s, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTransientBatch(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	cached, err := m.NewTransient(0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := m.NewTransientWith(0.1, nil, SolverDense)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTransientBatch([]*Transient{dense}); !errors.Is(err, ErrNotBatchable) {
		t.Fatalf("dense lane 0: got %v, want ErrNotBatchable", err)
	}
	if _, err := NewTransientBatch([]*Transient{cached, dense}); !errors.Is(err, ErrNotBatchable) {
		t.Fatalf("mixed solver: got %v, want ErrNotBatchable", err)
	}
	private, err := m.NewTransientWith(0.1, nil, SolverSparse)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTransientBatch([]*Transient{cached, private}); !errors.Is(err, ErrNotBatchable) {
		t.Fatalf("private factorization: got %v, want ErrNotBatchable", err)
	}
	otherDt, err := m.NewTransient(0.2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTransientBatch([]*Transient{cached, otherDt}); !errors.Is(err, ErrNotBatchable) {
		t.Fatalf("mixed dt: got %v, want ErrNotBatchable", err)
	}
	// StepInto shape errors.
	batch, err := NewTransientBatch([]*Transient{cached})
	if err != nil {
		t.Fatal(err)
	}
	one := [][]float64{make([]float64, m.NumNodes)}
	if err := batch.StepInto(one, nil); err == nil {
		t.Fatal("mismatched power count accepted")
	}
	short := [][]float64{make([]float64, 1)}
	if err := batch.StepInto(short, [][]float64{uniformCorePower(s, 1)}); err == nil {
		t.Fatal("short destination accepted")
	}
}
