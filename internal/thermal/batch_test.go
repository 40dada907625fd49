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
	a, b := make([]float64, m.NumNodes), make([]float64, m.NumNodes)
	for i := 0; i < 5; i++ {
		if err := tr.StepInto(a, p); err != nil {
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
		if err := tr.StepInto(a, p); err != nil {
			t.Fatal(err)
		}
		if err := tr2.StepInto(b, p); err != nil {
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
					if batch.k != k {
						t.Fatalf("batch has %d lanes, want %d", batch.k, k)
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

// TestTransientScratchIsLazy pins what an integrator holds: C/dt comes
// with the model's memoized factorization, so integrators of one model
// and step share it, while a private SolverSparse factorization brings
// its own, bit for bit equal; the solve scratch (rhs, pn, scratch)
// appears only on the first sequential StepInto, so batch lanes, which
// expand power straight into the panel, never hold it.
func TestTransientScratchIsLazy(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP2)
	m, err := NewBlockModel(s, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	const dt = 0.1
	lanes := make([]*Transient, 2)
	for l := range lanes {
		if lanes[l], err = m.NewTransient(dt, nil); err != nil {
			t.Fatal(err)
		}
	}
	private, err := m.NewTransientWith(dt, nil, SolverSparse)
	if err != nil {
		t.Fatal(err)
	}
	if &lanes[0].cdt[0] != &lanes[1].cdt[0] {
		t.Error("two integrators of one model and step hold separate C/dt vectors")
	}
	if &private.cdt[0] == &lanes[0].cdt[0] || private.chol == lanes[0].chol {
		t.Error("a SolverSparse integrator shares the memoized factorization")
	}
	for i, v := range private.cdt {
		if math.Float64bits(v) != math.Float64bits(lanes[0].cdt[i]) {
			t.Fatalf("node %d: private C/dt %g, memoized %g", i, v, lanes[0].cdt[i])
		}
	}
	noScratch := func(tr *Transient) bool { return tr.rhs == nil && tr.pn == nil && tr.scratch == nil }
	batch, err := NewTransientBatch(lanes)
	if err != nil {
		t.Fatal(err)
	}
	p := uniformCorePower(s, 1.5)
	dsts := [][]float64{make([]float64, m.NumNodes), make([]float64, m.NumNodes)}
	for i := 0; i < 3; i++ {
		if err := batch.StepInto(dsts, [][]float64{p, p}); err != nil {
			t.Fatal(err)
		}
	}
	for l, tr := range lanes {
		if !noScratch(tr) {
			t.Errorf("lane %d holds solve scratch after batch steps", l)
		}
	}
	if err := lanes[0].StepInto(dsts[0], p); err != nil {
		t.Fatal(err)
	}
	if n := m.NumNodes; len(lanes[0].rhs) != n || len(lanes[0].pn) != n || len(lanes[0].scratch) != n {
		t.Errorf("after a sequential step the scratch has %d, %d and %d entries, want %d", len(lanes[0].rhs), len(lanes[0].pn), len(lanes[0].scratch), n)
	}
}

// TestTransientBatchPrefixStep pins prefix stepping, which lets runs
// of different lengths share one batch: StepInto with k < K
// destinations advances lanes 0…k−1 bit for bit as each integrator
// stepped alone would, and leaves lanes k…K−1 — integrator state and
// destination — untouched. The lanes retire longest run first, as the
// simulator's driver orders them, so k falls through the panel
// kernel's 8-lane blocks, 4-lane blocks and single-lane tails.
func TestTransientBatchPrefixStep(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP4)
	block, err := NewBlockModel(s, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	grid, err := NewGridModel(s, DefaultParams(), 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	steps := []int{14, 14, 12, 12, 11, 9, 9, 9, 8, 6, 6, 3, 1}
	for _, m := range []*Model{block, grid} {
		K := len(steps)
		lanes := make([]*Transient, K)
		alone := make([]*Transient, K)
		dsts := make([][]float64, K)
		want := make([][]float64, K)
		powers := make([][]float64, K)
		for l := range lanes {
			var err error
			if lanes[l], err = m.NewTransient(0.1, nil); err != nil {
				t.Fatal(err)
			}
			if alone[l], err = m.NewTransient(0.1, nil); err != nil {
				t.Fatal(err)
			}
			dsts[l] = make([]float64, m.NumNodes)
			want[l] = make([]float64, m.NumNodes)
			powers[l] = uniformCorePower(s, 0.6+0.3*float64(l))
		}
		batch, err := NewTransientBatch(lanes)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < steps[0]; step++ {
			k := 0
			for k < K && steps[k] > step {
				k++
			}
			var frozenRise, frozenDst [][]float64
			for l := k; l < K; l++ {
				frozenRise = append(frozenRise, append([]float64(nil), lanes[l].rise...))
				frozenDst = append(frozenDst, append([]float64(nil), dsts[l]...))
			}
			if err := batch.StepInto(dsts[:k], powers[:k]); err != nil {
				t.Fatal(err)
			}
			for l := 0; l < k; l++ {
				if err := alone[l].StepInto(want[l], powers[l]); err != nil {
					t.Fatal(err)
				}
				for i := range want[l] {
					if math.Float64bits(dsts[l][i]) != math.Float64bits(want[l][i]) {
						t.Fatalf("%d nodes, step %d (k=%d) lane %d node %d: batch %g, alone %g",
							m.NumNodes, step, k, l, i, dsts[l][i], want[l][i])
					}
				}
			}
			for l := k; l < K; l++ {
				for i := range dsts[l] {
					if math.Float64bits(lanes[l].rise[i]) != math.Float64bits(frozenRise[l-k][i]) ||
						math.Float64bits(dsts[l][i]) != math.Float64bits(frozenDst[l-k][i]) {
						t.Fatalf("%d nodes, step %d (k=%d): retired lane %d node %d moved", m.NumNodes, step, k, l, i)
					}
				}
			}
		}
		if err := batch.StepInto(nil, nil); err == nil {
			t.Fatal("k = 0 accepted")
		}
		over := append(append([][]float64(nil), dsts...), make([]float64, m.NumNodes))
		if err := batch.StepInto(over, append(append([][]float64(nil), powers...), powers[0])); err == nil {
			t.Fatalf("k = %d > K = %d accepted", K+1, K)
		}
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
