package sweep

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// failAfterSink accepts n records, then fails every subsequent Put.
type failAfterSink struct {
	n    int
	puts int
}

func (f *failAfterSink) Put(Record) error {
	f.puts++
	if f.puts > f.n {
		return fmt.Errorf("disk full")
	}
	return nil
}

func (f *failAfterSink) Close() error { return nil }

// TestSinkFailureCancelsAndLeavesResumableCheckpoint is the sink
// error-path contract: when a sink's Put starts failing mid-stream the
// sweep must surface that error, stop dispatching the remaining jobs,
// and leave the checkpoint written so far loadable — so a rerun with
// -resume completes exactly the missing jobs.
func TestSinkFailureCancelsAndLeavesResumableCheckpoint(t *testing.T) {
	jobs := testSpec().Expand() // 24 jobs
	var ck bytes.Buffer
	var ran atomic.Int64
	countingRun := func(ctx context.Context, j Job) (Record, error) {
		ran.Add(1)
		return fakeRun(ctx, j)
	}

	// The checkpoint sink sits before the failing sink, as dtmsweep
	// arranges it, so every record the failing sink saw is also durable.
	n, err := Execute(context.Background(), jobs, countingRun, Options{Workers: 2},
		NewJSONLSink(&ck), &failAfterSink{n: 3})
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Execute error = %v, want the sink's write failure", err)
	}
	if n != 3 {
		t.Fatalf("executed count = %d, want 3 (records fully delivered before the failure)", n)
	}
	if got := ran.Load(); got >= int64(len(jobs)) {
		t.Fatalf("sink failure did not cancel the sweep: %d of %d jobs ran", got, len(jobs))
	}

	// The checkpoint must load cleanly and cover at least the delivered
	// records (the failing Put's record reached the checkpoint first).
	recs, err := LoadCheckpoint(bytes.NewReader(ck.Bytes()))
	if err != nil {
		t.Fatalf("checkpoint left unreadable after sink failure: %v", err)
	}
	if len(recs) < n {
		t.Fatalf("checkpoint holds %d records, want >= %d", len(recs), n)
	}

	// Resume: running the jobs the checkpoint lacks must complete the
	// sweep with no job run twice and the merged record set exactly
	// covering the job list.
	done := CompletedKeys(recs)
	col := &Collector{}
	resumed, err := Execute(context.Background(), without(jobs, done), fakeRun, Options{}, col)
	if err != nil {
		t.Fatalf("resumed sweep failed: %v", err)
	}
	if want := len(jobs) - len(done); resumed != want {
		t.Fatalf("resumed sweep ran %d jobs, want %d", resumed, want)
	}
	merged := Dedup(append(recs, col.Records...))
	if len(merged) != len(jobs) {
		t.Fatalf("merged checkpoint+resume has %d records, want %d", len(merged), len(jobs))
	}
	want := map[string]bool{}
	for _, j := range jobs {
		want[j.Key()] = true
	}
	for _, r := range merged {
		if !want[r.Key] {
			t.Errorf("merged set holds unexpected record %q", r.Key)
		}
		delete(want, r.Key)
	}
	for k := range want {
		t.Errorf("merged set is missing record %q", k)
	}
}

// TestSinkFailureOnCloseSurfaces covers the other sink error path: a
// clean sweep whose sink fails at Close (e.g. final flush hits a full
// disk) must still report the error.
func TestSinkFailureOnCloseSurfaces(t *testing.T) {
	jobs := testSpec().Expand()[:4]
	_, err := Execute(context.Background(), jobs, fakeRun, Options{}, closeFailSink{})
	if err == nil || !strings.Contains(err.Error(), "close boom") {
		t.Fatalf("Execute error = %v, want the sink close failure", err)
	}
}

type closeFailSink struct{}

func (closeFailSink) Put(Record) error { return nil }
func (closeFailSink) Close() error     { return fmt.Errorf("close boom") }
