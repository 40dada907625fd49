package sweep

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// fakeRunGroup is fakeRun lifted over a chunk: one record per job, in
// job order, with contents identical to the per-job runner's.
func fakeRunGroup(ctx context.Context, jobs []Job) ([]Record, error) {
	recs := make([]Record, len(jobs))
	for i, j := range jobs {
		r, err := fakeRun(ctx, j)
		if err != nil {
			return nil, err
		}
		recs[i] = r
	}
	return recs, nil
}

// groupByScenario is the test grouping key: all jobs of one scenario
// batch together, mirroring exp.GroupKey's same-thermal-system rule.
func groupByScenario(j Job) string { return j.Scenario.ID() }

// TestChunkJobsPartition pins the deterministic chunking: same-key jobs
// gather at the key's first occurrence in expansion order, chunks cap
// at maxGroup, empty-key jobs stay singletons in place, and every job
// appears exactly once.
func TestChunkJobsPartition(t *testing.T) {
	jobs := testSpec().Expand()
	chunks := chunkJobs(jobs, groupByScenario, 5)
	seen := map[string]bool{}
	for _, c := range chunks {
		if len(c) == 0 || len(c) > 5 {
			t.Fatalf("chunk size %d outside (0, 5]", len(c))
		}
		key := groupByScenario(c[0])
		for _, j := range c {
			if groupByScenario(j) != key {
				t.Fatalf("chunk mixes keys %q and %q", key, groupByScenario(j))
			}
			k := j.Key()
			if seen[k] {
				t.Fatalf("job %q appears in two chunks", k)
			}
			seen[k] = true
		}
	}
	if len(seen) != len(jobs) {
		t.Fatalf("chunks cover %d jobs, want %d", len(seen), len(jobs))
	}
	// Within one key, jobs must keep expansion order across its chunks.
	var perKey = map[string][]string{}
	for _, c := range chunks {
		k := groupByScenario(c[0])
		for _, j := range c {
			perKey[k] = append(perKey[k], j.Key())
		}
	}
	var wantPerKey = map[string][]string{}
	for _, j := range jobs {
		k := groupByScenario(j)
		wantPerKey[k] = append(wantPerKey[k], j.Key())
	}
	if !reflect.DeepEqual(perKey, wantPerKey) {
		t.Fatal("chunking reordered jobs within a key")
	}
	// Nil group: every job is its own chunk.
	solo := chunkJobs(jobs, nil, 5)
	if len(solo) != len(jobs) {
		t.Fatalf("nil group gave %d chunks for %d jobs", len(solo), len(jobs))
	}
	// Empty keys stay singletons even with grouping on.
	mixed := chunkJobs(jobs, func(j Job) string {
		if j.Baseline {
			return ""
		}
		return groupByScenario(j)
	}, 5)
	nSolo := 0
	for _, c := range mixed {
		if len(c) == 1 && c[0].Baseline {
			nSolo++
		}
	}
	nBase := 0
	for _, j := range jobs {
		if j.Baseline {
			nBase++
		}
	}
	if nSolo != nBase {
		t.Fatalf("%d baseline jobs ran solo, want %d", nSolo, nBase)
	}
}

// TestExecuteGroupedMatchesPerJob is the orchestration half of the
// batching contract: grouped execution must deliver exactly the records
// of the per-job path — same keys, same contents — with only completion
// order free to differ.
func TestExecuteGroupedMatchesPerJob(t *testing.T) {
	jobs := testSpec().Expand()
	want := &Collector{}
	if _, err := Execute(context.Background(), jobs, fakeRun, Options{Workers: 4}, want); err != nil {
		t.Fatal(err)
	}
	var grouped atomic.Int64
	got := &Collector{}
	n, err := Execute(context.Background(), jobs, fakeRun, Options{
		Workers: 4,
		Group:   groupByScenario,
		RunGroup: func(ctx context.Context, chunk []Job) ([]Record, error) {
			grouped.Add(int64(len(chunk)))
			return fakeRunGroup(ctx, chunk)
		},
	}, got)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(jobs) {
		t.Fatalf("grouped Execute ran %d jobs, want %d", n, len(jobs))
	}
	if grouped.Load() == 0 {
		t.Fatal("no jobs took the grouped path")
	}
	byKey := func(recs []Record) map[string]Record {
		m := make(map[string]Record, len(recs))
		for _, r := range recs {
			r.ElapsedMS = 0 // wall time is not part of the contract
			m[r.Key] = r
		}
		return m
	}
	if !reflect.DeepEqual(byKey(got.Records), byKey(want.Records)) {
		t.Fatal("grouped records differ from per-job records")
	}
}

// TestExecuteGroupedSkip checks the checkpoint-resume interplay: a
// resumed job list lacks its done jobs, so grouping batches only what
// actually runs.
func TestExecuteGroupedSkip(t *testing.T) {
	jobs := testSpec().Expand()
	skip := map[string]bool{jobs[0].Key(): true, jobs[5].Key(): true}
	col := &Collector{}
	n, err := Execute(context.Background(), without(jobs, skip), fakeRun, Options{
		Group:    groupByScenario,
		RunGroup: fakeRunGroup,
	}, col)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(jobs) - 2; n != want || len(col.Records) != want {
		t.Fatalf("executed %d, collected %d, want %d", n, len(col.Records), want)
	}
	for _, r := range col.Records {
		if skip[r.Key] {
			t.Errorf("skipped job %q was executed", r.Key)
		}
	}
}

// TestExecuteGroupedErrors covers group-runner failure modes: an error
// fails the sweep, and a runner returning the wrong record count is an
// error rather than silent record loss.
func TestExecuteGroupedErrors(t *testing.T) {
	jobs := testSpec().Expand()
	boom := fmt.Errorf("boom")
	_, err := Execute(context.Background(), jobs, fakeRun, Options{
		Group: groupByScenario,
		RunGroup: func(ctx context.Context, chunk []Job) ([]Record, error) {
			return nil, boom
		},
	}, &Collector{})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Execute error = %v, want the group error", err)
	}
	_, err = Execute(context.Background(), jobs, fakeRun, Options{
		Group: groupByScenario,
		RunGroup: func(ctx context.Context, chunk []Job) ([]Record, error) {
			recs, err := fakeRunGroup(ctx, chunk)
			return recs[:len(recs)-1], err
		},
	}, &Collector{})
	if err == nil || !strings.Contains(err.Error(), "records") {
		t.Fatalf("Execute error = %v, want the record-count error", err)
	}
	// A Group without a RunGroup falls back to per-job execution.
	col := &Collector{}
	n, err := Execute(context.Background(), jobs, fakeRun, Options{Group: groupByScenario}, col)
	if err != nil || n != len(jobs) {
		t.Fatalf("Group without RunGroup: n=%d err=%v", n, err)
	}
}
