package sweep

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/thermal"
)

func testSpec() Spec {
	return Spec{
		Scenarios:  ScenariosFor([]floorplan.Experiment{floorplan.EXP1, floorplan.EXP2}),
		Policies:   []string{"Adapt3D", "DVFS_FLP"},
		Benchmarks: []string{"Web-high", "Database"},
		Replicates: 2,
		Seed:       7,
		DurationsS: []float64{30},
		UseDPM:     true,
	}
}

func TestExpandDeterministicAndComplete(t *testing.T) {
	spec := testSpec()
	a, b := spec.Expand(), spec.Expand()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Expand is not deterministic")
	}
	// 2 scenarios x (2 policies + implicit Default baseline) x 2 benches
	// x 2 replicates x 1 solver x 1 duration.
	if want := 2 * 3 * 2 * 2; len(a) != want {
		t.Fatalf("Expand returned %d jobs, want %d", len(a), want)
	}
	seen := map[string]bool{}
	for _, j := range a {
		k := j.Key()
		if seen[k] {
			t.Fatalf("duplicate job key %q", k)
		}
		seen[k] = true
	}
	// Baseline jobs exist for every (scenario, bench, replicate).
	nBase := 0
	for _, j := range a {
		if j.Baseline {
			if j.Policy != "Default" {
				t.Errorf("baseline job has policy %q", j.Policy)
			}
			nBase++
		}
	}
	if nBase != 2*2*2 {
		t.Errorf("got %d baseline jobs, want 8", nBase)
	}
}

func TestExpandNoBaselineWhenDefaultPresent(t *testing.T) {
	spec := testSpec()
	spec.Policies = []string{"Default", "Adapt3D"}
	for _, j := range spec.Expand() {
		if j.Baseline {
			t.Fatalf("unexpected baseline job %q with Default in the roster", j.Key())
		}
	}
}

// TestJobKeyStable pins the key format: checkpoints and shard
// assignments written by one build must be readable by the next.
func TestJobKeyStable(t *testing.T) {
	j := Job{
		Scenario:  Scenario{Exp: floorplan.EXP3},
		Policy:    "Adapt3D",
		Bench:     "Web-high",
		Replicate: 1,
		Solver:    thermal.SolverCached,
		DurationS: 30,
		UseDPM:    true,
	}
	j.Seed = 7926
	if got, want := j.Key(), "EXP-3|Adapt3D|Web-high|r1.s7926|cached|30s|dpm"; got != want {
		t.Errorf("Key() = %q, want %q", got, want)
	}
	j.Scenario.GridRows, j.Scenario.GridCols = 16, 12
	j.UseDPM = false
	if got, want := j.Key(), "EXP-3/grid16x12|Adapt3D|Web-high|r1.s7926|cached|30s|nodpm"; got != want {
		t.Errorf("grid Key() = %q, want %q", got, want)
	}
	j.Scenario.GridRows, j.Scenario.GridCols = 0, 0
	j.Scenario.JointResistivityMKW = 0.5
	if got, want := j.Scenario.ID(), "EXP-3/jr0.5"; got != want {
		t.Errorf("resistivity scenario ID = %q, want %q", got, want)
	}
}

// TestScenarioNameIsLabelNotAlias pins that a scenario name prefixes
// the identity without replacing the physics: two same-named scenarios
// with different configurations must keep distinct IDs, or one's
// cached results could be served as the other's (dtmserved keys its
// result cache by job key).
func TestScenarioNameIsLabelNotAlias(t *testing.T) {
	a := Scenario{Name: "prod", Exp: floorplan.EXP1}
	b := Scenario{Name: "prod", Exp: floorplan.EXP2}
	if a.ID() == b.ID() {
		t.Fatalf("same-named scenarios with different physics share ID %q", a.ID())
	}
	if got, want := a.ID(), "prod@EXP-1"; got != want {
		t.Errorf("named scenario ID = %q, want %q", got, want)
	}
	c := Scenario{Name: "prod", Exp: floorplan.EXP1, GridRows: 4, GridCols: 4}
	if got, want := c.ID(), "prod@EXP-1/grid4x4"; got != want {
		t.Errorf("named grid scenario ID = %q, want %q", got, want)
	}
}

// TestNumJobsMatchesExpand pins that the pre-expansion size gate
// agrees with the expansion it guards, and saturates instead of
// overflowing on adversarial counts.
func TestNumJobsMatchesExpand(t *testing.T) {
	spec := testSpec()
	if got, want := spec.NumJobs(), len(spec.Expand()); got != want {
		t.Fatalf("NumJobs = %d, Expand produced %d", got, want)
	}
	spec.Policies = []string{"Default", "Adapt3D"} // baseline in roster
	if got, want := spec.NumJobs(), len(spec.Expand()); got != want {
		t.Fatalf("NumJobs with explicit baseline = %d, Expand produced %d", got, want)
	}
	huge := testSpec()
	huge.Replicates = 2_000_000_000
	if got := huge.NumJobs(); got < 1<<31-1 {
		t.Fatalf("NumJobs on a 2e9-replicate spec = %d, want saturation", got)
	}
}

func TestReplicateSeeds(t *testing.T) {
	spec := testSpec()
	if s := spec.ReplicateSeed(0); s != 7 {
		t.Errorf("replicate 0 seed = %d, want the base seed 7", s)
	}
	if s := spec.ReplicateSeed(2); s != 7+2*DefaultSeedStride {
		t.Errorf("replicate 2 seed = %d", s)
	}
}

func TestShardPartition(t *testing.T) {
	jobs := testSpec().Expand()
	const n = 3
	seen := map[string]int{}
	total := 0
	for i := 0; i < n; i++ {
		shard, err := Shard(jobs, i, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range shard {
			seen[j.Key()]++
			total++
		}
	}
	if total != len(jobs) {
		t.Fatalf("shards cover %d jobs, want %d", total, len(jobs))
	}
	for k, c := range seen {
		if c != 1 {
			t.Errorf("job %q appears in %d shards", k, c)
		}
	}
	if _, err := Shard(jobs, 3, 3); err == nil {
		t.Error("Shard accepted out-of-range index")
	}
	if _, err := Shard(jobs, 0, 0); err == nil {
		t.Error("Shard accepted zero count")
	}
	one, err := Shard(jobs, 0, 1)
	if err != nil || len(one) != len(jobs) {
		t.Errorf("1-way shard should be the identity (%d jobs, err %v)", len(one), err)
	}
}

func fakeRun(ctx context.Context, j Job) (Record, error) {
	return Record{
		Key:      j.Key(),
		Scenario: j.Scenario.ID(),
		Policy:   j.Policy,
		Bench:    j.Bench,
		MaxTempC: float64(len(j.Key())),
	}, nil
}

func TestExecuteStreamsEveryJobOnce(t *testing.T) {
	jobs := testSpec().Expand()
	col := &Collector{}
	n, err := Execute(context.Background(), jobs, fakeRun, Options{Workers: 4}, col)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(jobs) || len(col.Records) != len(jobs) {
		t.Fatalf("executed %d, collected %d, want %d", n, len(col.Records), len(jobs))
	}
	keys := map[string]bool{}
	for _, r := range col.Records {
		if keys[r.Key] {
			t.Fatalf("record %q delivered twice", r.Key)
		}
		keys[r.Key] = true
	}
}

// without returns the jobs whose keys skip lacks, in order: the job
// list of a sweep resumed from a checkpoint holding those keys.
func without(jobs []Job, skip map[string]bool) []Job {
	var rest []Job
	for _, j := range jobs {
		if !skip[j.Key()] {
			rest = append(rest, j)
		}
	}
	return rest
}

// TestExecuteSkip runs a resumed job list, with jobs 0 and 3 done:
// exactly the rest run, and no done job runs.
func TestExecuteSkip(t *testing.T) {
	jobs := testSpec().Expand()
	skip := map[string]bool{jobs[0].Key(): true, jobs[3].Key(): true}
	col := &Collector{}
	n, err := Execute(context.Background(), without(jobs, skip), fakeRun, Options{}, col)
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

func TestExecuteStopsOnRunError(t *testing.T) {
	jobs := testSpec().Expand()
	boom := fmt.Errorf("boom")
	run := func(ctx context.Context, j Job) (Record, error) {
		if j.Policy == "DVFS_FLP" {
			return Record{}, boom
		}
		return fakeRun(ctx, j)
	}
	_, err := Execute(context.Background(), jobs, run, Options{Workers: 2}, &Collector{})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Execute error = %v, want the run error", err)
	}
}

func TestExecuteCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := testSpec().Expand()
	n, err := Execute(ctx, jobs, fakeRun, Options{}, &Collector{})
	if err != context.Canceled {
		t.Fatalf("Execute on canceled ctx: err=%v n=%d", err, n)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	jobs := testSpec().Expand()[:4]
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	var want []Record
	for _, j := range jobs {
		r, _ := fakeRun(context.Background(), j)
		want = append(want, r)
		if err := sink.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestLoadCheckpointToleratesTruncatedTail(t *testing.T) {
	jobs := testSpec().Expand()[:3]
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	for _, j := range jobs {
		r, _ := fakeRun(context.Background(), j)
		if err := sink.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	full := buf.String()
	cut := full[:len(full)-25] // kill the process mid final line
	got, err := LoadCheckpoint(strings.NewReader(cut))
	if err != nil {
		t.Fatalf("LoadCheckpoint on truncated tail: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d records from truncated checkpoint, want 2", len(got))
	}
}

func TestLoadCheckpointRejectsInteriorCorruption(t *testing.T) {
	jobs := testSpec().Expand()[:2]
	var buf bytes.Buffer
	buf.WriteString("{garbage\n")
	sink := NewJSONLSink(&buf)
	for _, j := range jobs {
		r, _ := fakeRun(context.Background(), j)
		if err := sink.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := LoadCheckpoint(&buf); err == nil {
		t.Fatal("LoadCheckpoint accepted interior corruption")
	}
}

func TestDedupAndCompletedKeys(t *testing.T) {
	r1 := Record{Key: "a", MaxTempC: 1}
	r2 := Record{Key: "b"}
	dup := Record{Key: "a", MaxTempC: 99}
	got := Dedup([]Record{r1, r2, dup})
	if !reflect.DeepEqual(got, []Record{r1, r2}) {
		t.Fatalf("Dedup = %+v", got)
	}
	keys := CompletedKeys([]Record{r1, r2, dup})
	if len(keys) != 2 || !keys["a"] || !keys["b"] {
		t.Fatalf("CompletedKeys = %v", keys)
	}
}

func TestCSVSinkShape(t *testing.T) {
	jobs := testSpec().Expand()[:2]
	var buf bytes.Buffer
	sink := NewCSVSink(&buf)
	for _, j := range jobs {
		r, _ := fakeRun(context.Background(), j)
		if err := sink.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want header + 2 rows", len(lines))
	}
	if cols := strings.Split(lines[0], ","); len(cols) != len(csvHeader) {
		t.Fatalf("CSV header has %d columns, want %d", len(cols), len(csvHeader))
	}
	for _, l := range lines[1:] {
		if cols := strings.Split(l, ","); len(cols) != len(csvHeader) {
			t.Fatalf("CSV row has %d columns, want %d: %q", len(strings.Split(l, ",")), len(csvHeader), l)
		}
	}
}
