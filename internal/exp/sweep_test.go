package exp

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// resumeConfig is a small but non-trivial sweep: two stacks, two
// policies plus the implicit baseline, two replicates.
func resumeConfig() MatrixConfig {
	cfg := goldenConfig()
	cfg.DurationS = 10
	cfg.Replicates = 2
	return cfg
}

// newRunner returns the per-job runner of a fresh NewRunners pair.
func newRunner() sweep.RunFunc {
	run, _ := NewRunners(RunnerHooks{})
	return run
}

func runMatrix(t *testing.T, cfg MatrixConfig) *Matrix {
	t.Helper()
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func requireEqualMatrices(t *testing.T, got, want *Matrix, what string) {
	t.Helper()
	if !reflect.DeepEqual(got.Cells, want.Cells) {
		t.Fatalf("%s: matrices differ\ngot  %+v\nwant %+v", what, got.Cells, want.Cells)
	}
}

// cancelAfter cancels the sweep once n records have streamed through
// it, simulating a sweep killed roughly mid-run.
type cancelAfter struct {
	n      int
	seen   int
	cancel context.CancelFunc
}

func (c *cancelAfter) Put(sweep.Record) error {
	c.seen++
	if c.seen == c.n {
		c.cancel()
	}
	return nil
}

func (c *cancelAfter) Close() error { return nil }

// TestCheckpointResumeMatchesUninterrupted kills a sweep at ~50%
// completion (by canceling its context), resumes it from the JSONL
// checkpoint, and requires the merged matrix to equal an uninterrupted
// run's exactly.
func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	cfg := resumeConfig()
	want := runMatrix(t, cfg)

	spec := cfg.Spec()
	jobs := spec.Expand()
	ckPath := filepath.Join(t.TempDir(), "ck.jsonl")

	// Phase 1: run with a checkpoint, killed halfway.
	ck, err := os.OpenFile(ckPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killer := &cancelAfter{n: len(jobs) / 2, cancel: cancel}
	_, err = sweep.Execute(ctx, jobs, newRunner(), sweep.Options{},
		sweep.NewJSONLSink(ck), killer)
	ck.Close()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep: err = %v, want context.Canceled", err)
	}

	done, err := sweep.LoadCheckpointFile(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) == 0 || len(done) >= len(jobs) {
		t.Fatalf("checkpoint holds %d of %d records; the kill did not land mid-sweep", len(done), len(jobs))
	}
	if _, err := cfg.Aggregate(done); err == nil {
		t.Fatal("Aggregate accepted an incomplete sweep")
	}

	// Phase 2: resume. Only the unfinished jobs run; completed keys are
	// skipped.
	col := &sweep.Collector{}
	ran, err := sweep.Execute(context.Background(), jobs, newRunner(),
		sweep.Options{Skip: sweep.CompletedKeys(done)}, col)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(jobs) - len(done); ran != want {
		t.Fatalf("resume ran %d jobs, want %d", ran, want)
	}

	got, err := cfg.Aggregate(append(done, col.Records...))
	if err != nil {
		t.Fatal(err)
	}
	requireEqualMatrices(t, got, want, "resumed sweep")
}

// TestShardedSweepMergesIdentical splits one sweep across two shards
// executed in separate orchestrator invocations and requires the
// merged records to aggregate to the unsharded matrix.
func TestShardedSweepMergesIdentical(t *testing.T) {
	cfg := resumeConfig()
	want := runMatrix(t, cfg)

	spec := cfg.Spec()
	jobs := spec.Expand()
	var merged []sweep.Record
	sizes := make([]int, 2)
	for i := 0; i < 2; i++ {
		shard, err := sweep.Shard(jobs, i, 2)
		if err != nil {
			t.Fatal(err)
		}
		sizes[i] = len(shard)
		col := &sweep.Collector{}
		if _, err := sweep.Execute(context.Background(), shard, newRunner(), sweep.Options{}, col); err != nil {
			t.Fatal(err)
		}
		merged = append(merged, col.Records...)
	}
	if sizes[0] == 0 || sizes[1] == 0 {
		t.Fatalf("degenerate shard split %v", sizes)
	}
	got, err := cfg.Aggregate(merged)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualMatrices(t, got, want, "2-way sharded sweep")
}

// TestReplicatesProduceSpread checks the mean±stddev cells: replicate
// runs differ (different seeds), the spread is populated, and a
// replicates=1 sweep carries none.
func TestReplicatesProduceSpread(t *testing.T) {
	cfg := resumeConfig()
	m := runMatrix(t, cfg)
	sawSpread := false
	for pi := range m.Cells {
		for ei := range m.Cells[pi] {
			c := m.Cells[pi][ei]
			if c.Spread == nil {
				t.Fatalf("cell %s/%v has no spread with %d replicates", c.Policy, c.Exp, cfg.Replicates)
			}
			if c.Spread.Replicates != cfg.Replicates {
				t.Errorf("spread replicates = %d, want %d", c.Spread.Replicates, cfg.Replicates)
			}
			if c.Spread.AvgPowerW > 0 || c.Spread.AvgCoreTempC > 0 {
				sawSpread = true
			}
		}
	}
	if !sawSpread {
		t.Error("every metric spread is zero; replicate seeds are not independent")
	}

	cfg.Replicates = 1
	m1 := runMatrix(t, cfg)
	for pi := range m1.Cells {
		for ei := range m1.Cells[pi] {
			if m1.Cells[pi][ei].Spread != nil {
				t.Fatal("replicates=1 cell carries a spread")
			}
		}
	}
}

// TestRunContextCanceled verifies the orchestrated Run aborts cleanly.
func TestRunContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, resumeConfig()); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext on canceled ctx: %v", err)
	}
}

// TestSweepRecordsFullTickCount drives the lost-tick fix through the
// orchestrated sweep path: a 0.3 s run at the paper's 100 ms tick is
// exactly 3 ticks, but int(0.3/0.1) truncated to 2 before the fix
// (float division lands at 2.9999999999999996), so every record of a
// sweep over a non-representable duration silently under-simulated.
func TestSweepRecordsFullTickCount(t *testing.T) {
	cfg := goldenConfig()
	cfg.DurationS = 0.3
	cfg.Policies = []string{"Default"}
	col := &sweep.Collector{}
	spec := cfg.Spec()
	if _, err := sweep.Execute(context.Background(), spec.Expand(), newRunner(), sweep.Options{}, col); err != nil {
		t.Fatal(err)
	}
	if len(col.Records) == 0 {
		t.Fatal("sweep produced no records")
	}
	for _, r := range col.Records {
		if r.Ticks != 3 {
			t.Errorf("record %s ran %d ticks, want 3 (0.3 s at 100 ms)", r.Key, r.Ticks)
		}
	}
}

// TestGroupedSweepRecordsByteIdentical is the whole-pipeline batching
// contract: running a sweep through the grouped (panel-solve) path must
// stream records identical — after stripping the wall-clock field — to
// the per-job path's, per job key. Aggregate equality follows, but the
// record-level check is the stronger pin: checkpoints, shards, and
// canonical streams all serialize these records. The full roster on one
// stack is a single 14-lane group, so its panel solves run the kernel's
// 8-lane, 4-lane and single-lane blocks end to end; the capped sweep
// (the roster on two benchmarks, 28 jobs of one key) splits its group
// into 16- and 12-lane chunks; the two-duration sweep is one group
// whose shorter runs retire mid-batch.
func TestGroupedSweepRecordsByteIdentical(t *testing.T) {
	roster := goldenConfig()
	roster.Policies = nil // the whole PolicyOrder roster
	roster.DurationS = 5
	capped := roster
	capped.Benchmarks = []string{"Web-high", "Web-med"}
	durations := resumeConfig().Spec()
	durations.DurationsS = []float64{4, 10}
	cases := []struct {
		name  string
		spec  sweep.Spec
		lanes int // the largest group dispatched
	}{
		{"capped", capped.Spec(), 16},
		{"full-roster", roster.Spec(), len(PolicyOrder)},
		{"two-durations", durations, 12},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec := c.spec
			jobs := spec.Expand()
			if err := Prewarm(spec); err != nil {
				t.Fatal(err)
			}

			perJob := &sweep.Collector{}
			run, _ := NewRunners(RunnerHooks{})
			if _, err := sweep.Execute(context.Background(), jobs, run, sweep.Options{Workers: 2}, perJob); err != nil {
				t.Fatal(err)
			}

			grouped := &sweep.Collector{}
			run2, runGroup := NewRunners(RunnerHooks{})
			var mu sync.Mutex
			lanes := 0
			sized := func(ctx context.Context, group []sweep.Job) ([]sweep.Record, error) {
				mu.Lock()
				lanes = max(lanes, len(group))
				mu.Unlock()
				return runGroup(ctx, group)
			}
			opts := sweep.Options{Workers: 2, Group: GroupKey, RunGroup: sized}
			if _, err := sweep.Execute(context.Background(), jobs, run2, opts, grouped); err != nil {
				t.Fatal(err)
			}
			if lanes != c.lanes {
				t.Fatalf("largest group ran %d lanes, want %d", lanes, c.lanes)
			}

			if len(grouped.Records) != len(perJob.Records) {
				t.Fatalf("grouped path streamed %d records, per-job %d", len(grouped.Records), len(perJob.Records))
			}
			byKey := func(recs []sweep.Record) map[string]sweep.Record {
				m := make(map[string]sweep.Record, len(recs))
				for _, r := range recs {
					r.ElapsedMS = 0
					m[r.Key] = r
				}
				return m
			}
			want, got := byKey(perJob.Records), byKey(grouped.Records)
			for k, w := range want {
				g, ok := got[k]
				if !ok {
					t.Fatalf("grouped path missing record %q", k)
				}
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("record %q differs between grouped and per-job paths\n got %+v\nwant %+v", k, g, w)
				}
			}
		})
	}
}

// TestGroupKey pins the batching key's scope: jobs over one thermal
// system batch together across policies, benchmarks, seeds,
// reliability and durations, under the system's ModelKey; different
// scenarios do not; non-cached solvers opt out entirely.
func TestGroupKey(t *testing.T) {
	spec := resumeConfig().Spec()
	spec.Scenarios = append(spec.Scenarios, sweep.ScenariosFor([]floorplan.Experiment{floorplan.EXP2})...)
	spec.DurationsS = []float64{10, 20}
	jobs := spec.Expand()
	base := jobs[0]
	for _, j := range jobs[1:] {
		same := j.Scenario.ID() == base.Scenario.ID() && j.Solver == base.Solver
		if got := GroupKey(j) == GroupKey(base); got != same {
			t.Errorf("GroupKey(%s) vs GroupKey(%s): equal=%v, want %v", j.Key(), base.Key(), got, same)
		}
	}
	cfg, err := JobConfig(workload.NewTraceCache(), base)
	if err != nil {
		t.Fatal(err)
	}
	if key, err := sim.ModelKey(cfg); err != nil || GroupKey(base) != key {
		t.Errorf("GroupKey(%s) = %q, want its ModelKey %q (%v)", base.Key(), GroupKey(base), key, err)
	}
	dense := base
	dense.Solver = thermal.SolverDense
	if GroupKey(dense) != "" {
		t.Errorf("dense-solver job got grouping key %q, want none", GroupKey(dense))
	}
}

// TestExpShorthandIsItsResolvedSpec pins the one-stack-identity
// contract: a builtin scenario with a joint-resistivity override and
// an inline scenario carrying the spec it resolves to are one thermal
// system, so they batch together and their records differ only in the
// wire-level names (key and scenario).
func TestExpShorthandIsItsResolvedSpec(t *testing.T) {
	short := sweep.Scenario{Exp: floorplan.EXP4, JointResistivityMKW: 0.46}
	spec, err := short.StackSpec()
	if err != nil {
		t.Fatal(err)
	}
	inline := sweep.Scenario{Stack: &sweep.StackRef{Spec: &spec}}
	run := newRunner()
	for _, pol := range []string{"Adapt3D", "DVFS_Rel"} {
		a := sweep.Job{Scenario: short, Policy: pol, Bench: "Web-med", Seed: 3, DurationS: 20, Reliability: true}
		b := a
		b.Scenario = inline
		if ga, gb := GroupKey(a), GroupKey(b); ga == "" || ga != gb {
			t.Errorf("%s: group keys %q and %q, want one non-empty key", pol, ga, gb)
		}
		fields := func(j sweep.Job) map[string]any {
			t.Helper()
			rec, err := run(context.Background(), j)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			var m map[string]any
			if err := json.Unmarshal(raw, &m); err != nil {
				t.Fatal(err)
			}
			if m["key"] == nil || m["scenario"] == nil {
				t.Fatalf("record %s lacks key or scenario", raw)
			}
			delete(m, "key")
			delete(m, "scenario")
			delete(m, "elapsed_ms")
			return m
		}
		if ra, rb := fields(a), fields(b); !reflect.DeepEqual(ra, rb) {
			t.Errorf("%s: records differ beyond key and scenario:\n%v\n%v", pol, ra, rb)
		}
	}
}
