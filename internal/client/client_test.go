package client

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/floorplan"
	"repro/internal/sweep"
	"repro/internal/thermal"
)

func testSpec() sweep.Spec {
	return sweep.Spec{
		Scenarios:  sweep.ScenariosFor([]floorplan.Experiment{floorplan.EXP1, floorplan.EXP2}),
		Policies:   []string{"Default", "Adapt3D"},
		Benchmarks: []string{"Web-med"},
		Seed:       1,
		Solvers:    []thermal.SolverKind{thermal.SolverCached},
		DurationsS: []float64{1},
	}
}

func fakeRecord(j sweep.Job) sweep.Record {
	return sweep.Record{Key: j.Key(), Scenario: j.Scenario.ID(), Policy: j.Policy,
		Bench: j.Bench, Replicate: j.Replicate, MaxTempC: float64(len(j.Key()))}
}

// tight returns a client against base with microsecond backoff.
func tight(base string) *Client {
	return &Client{BaseURL: base, MaxRetries: 2, Backoff: time.Millisecond, MaxBackoff: time.Millisecond}
}

// sweepServer is a scriptable fake dtmserved: per attempt, it streams
// the request's jobs (honoring skip_keys unless ignoreSkip) and cuts
// the stream without a trailer after truncateAt records on the first
// attempt.
type sweepServer struct {
	ts         *httptest.Server
	truncateAt int  // records to stream on attempt 0 before dying; -1: complete
	ignoreSkip bool // replay the full job list on every attempt

	mu       sync.Mutex
	attempts int
	skipSeen [][]string // skip_keys of each attempt, in order
}

func newSweepServer(t *testing.T, truncateAt int, ignoreSkip bool) *sweepServer {
	t.Helper()
	s := &sweepServer{truncateAt: truncateAt, ignoreSkip: ignoreSkip}
	s.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req Request
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.mu.Lock()
		attempt := s.attempts
		s.attempts++
		s.skipSeen = append(s.skipSeen, append([]string(nil), req.SkipKeys...))
		s.mu.Unlock()
		if s.ignoreSkip {
			req.SkipKeys = nil
		}
		jobs, err := req.Jobs()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		for i, j := range jobs {
			if attempt == 0 && s.truncateAt >= 0 && i == s.truncateAt {
				w.(http.Flusher).Flush()
				panic(http.ErrAbortHandler) // cut mid-stream, no trailer
			}
			enc.Encode(fakeRecord(j))
			w.(http.Flusher).Flush()
		}
		w.Header().Set(http.TrailerPrefix+"X-Sweep-Status", "complete")
	}))
	t.Cleanup(s.ts.Close)
	return s
}

func streamAll(t *testing.T, c *Client, spec sweep.Spec) ([]sweep.Record, int, error) {
	t.Helper()
	var got []sweep.Record
	n, err := c.Stream(context.Background(), Request{Spec: spec}, func(rec sweep.Record) error {
		got = append(got, rec)
		return nil
	})
	return got, n, err
}

func assertCanonical(t *testing.T, jobs []sweep.Job, got []sweep.Record) {
	t.Helper()
	if len(got) != len(jobs) {
		t.Fatalf("stream delivered %d records, want %d", len(got), len(jobs))
	}
	for i, j := range jobs {
		if !reflect.DeepEqual(got[i], fakeRecord(j)) {
			t.Fatalf("record %d is %+v, want %+v", i, got[i], fakeRecord(j))
		}
	}
}

// TestStreamRetryResumesOnlyMissingJobs is the retry-dedupe contract: a
// stream cut mid-flight is re-issued with every already-received key in
// the skip-set, and the caller still sees each record exactly once in
// canonical order.
func TestStreamRetryResumesOnlyMissingJobs(t *testing.T) {
	spec := testSpec()
	jobs := spec.Expand()
	const cut = 3
	srv := newSweepServer(t, cut, false)
	c := tight(srv.ts.URL)
	retries := 0
	c.OnRetry = func() { retries++ }

	got, n, err := streamAll(t, c, spec)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(jobs) {
		t.Fatalf("Stream reported %d records, want %d", n, len(jobs))
	}
	assertCanonical(t, jobs, got)
	if retries != 1 {
		t.Errorf("OnRetry fired %d times, want 1", retries)
	}

	srv.mu.Lock()
	defer srv.mu.Unlock()
	if srv.attempts != 2 {
		t.Fatalf("server saw %d attempts, want 2", srv.attempts)
	}
	if len(srv.skipSeen[0]) != 0 {
		t.Errorf("first attempt carried skip keys %v, want none", srv.skipSeen[0])
	}
	var wantSkip []string
	for _, j := range jobs[:cut] {
		wantSkip = append(wantSkip, j.Key())
	}
	sort.Strings(wantSkip)
	if !reflect.DeepEqual(srv.skipSeen[1], wantSkip) {
		t.Errorf("retry skip keys = %v, want the %d received keys %v", srv.skipSeen[1], cut, wantSkip)
	}
}

// TestStreamDropsReplayedRecords covers a server that ignores the
// resume skip-set and replays the whole sweep on retry: the count-based
// gate must trim the replay so every record still reaches the caller
// exactly once, in order.
func TestStreamDropsReplayedRecords(t *testing.T) {
	spec := testSpec()
	jobs := spec.Expand()
	srv := newSweepServer(t, 5, true)
	got, _, err := streamAll(t, tight(srv.ts.URL), spec)
	if err != nil {
		t.Fatal(err)
	}
	assertCanonical(t, jobs, got)
}

// TestStreamRejectsUnknownKey: a record outside the request's job list
// is a protocol violation, not something to silently pass through.
func TestStreamRejectsUnknownKey(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(sweep.Record{Key: "bogus|key"})
		w.Header().Set(http.TrailerPrefix+"X-Sweep-Status", "complete")
	}))
	t.Cleanup(ts.Close)
	_, _, err := streamAll(t, tight(ts.URL), testSpec())
	if err == nil {
		t.Fatal("stream accepted a record not in the job list")
	}
	if IsTransient(err) {
		t.Error("unknown-key error classified transient; retrying cannot help")
	}
}

// TestStreamErrorClassification pins which failures retry: a trailer
// "error" and a 4xx are permanent, a 5xx is transient.
func TestStreamErrorClassification(t *testing.T) {
	trailerErr := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		w.Header().Set(http.TrailerPrefix+"X-Sweep-Status", "error")
		w.Header().Set(http.TrailerPrefix+"X-Sweep-Error", "job exploded")
	}))
	t.Cleanup(trailerErr.Close)
	c := tight(trailerErr.URL)
	c.OnRetry = func() { t.Error("permanent trailer error was retried") }
	if _, _, err := streamAll(t, c, testSpec()); err == nil || IsTransient(err) {
		t.Fatalf("trailer error → %v, want permanent failure", err)
	}

	for _, tc := range []struct {
		code      int
		transient bool
	}{{http.StatusBadRequest, false}, {http.StatusServiceUnavailable, true}} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, `{"error":"nope"}`, tc.code)
		}))
		c := &Client{BaseURL: ts.URL, MaxRetries: -1}
		_, _, err := streamAll(t, c, testSpec())
		ts.Close()
		if err == nil {
			t.Fatalf("status %d accepted", tc.code)
		}
		if IsTransient(err) != tc.transient {
			t.Errorf("status %d: transient=%v, want %v", tc.code, IsTransient(err), tc.transient)
		}
	}
}

// TestRunJobPeerFillWire pins the /v1/job wire behavior: the peer-fill
// header rides only when asked, and an answer for the wrong key is
// rejected (a peer that disagrees about job identity must not poison
// the cache).
func TestRunJobPeerFillWire(t *testing.T) {
	job := testSpec().Expand()[0]
	var sawHeader, lie bool
	var mu sync.Mutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		sawHeader = r.Header.Get(PeerFillHeader) != ""
		answerKey := job.Key()
		if lie {
			answerKey = "some|other|job"
		}
		mu.Unlock()
		json.NewEncoder(w).Encode(sweep.Record{Key: answerKey})
	}))
	t.Cleanup(ts.Close)
	c := tight(ts.URL)

	rec, err := c.RunJob(context.Background(), job, true)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Key != job.Key() {
		t.Fatalf("RunJob answered key %q", rec.Key)
	}
	if !sawHeader {
		t.Error("peerFill=true did not set the peer-fill header")
	}
	if _, err := c.RunJob(context.Background(), job, false); err != nil {
		t.Fatal(err)
	}
	if sawHeader {
		t.Error("peerFill=false set the peer-fill header")
	}

	mu.Lock()
	lie = true
	mu.Unlock()
	if _, err := c.RunJob(context.Background(), job, false); err == nil {
		t.Fatal("RunJob accepted a record for a different key")
	}
}

// TestRequestWithSkip pins the sub-request builder: union with the
// existing skip-set, sorted for deterministic bodies, original request
// untouched.
func TestRequestWithSkip(t *testing.T) {
	req := Request{SkipKeys: []string{"b", "a"}}
	got := req.WithSkip(map[string]bool{"c": true, "a": true})
	if want := []string{"a", "b", "c"}; !reflect.DeepEqual(got.SkipKeys, want) {
		t.Errorf("WithSkip = %v, want %v", got.SkipKeys, want)
	}
	if !reflect.DeepEqual(req.SkipKeys, []string{"b", "a"}) {
		t.Errorf("WithSkip mutated the receiver: %v", req.SkipKeys)
	}
	if empty := (Request{}).WithSkip(nil); empty.SkipKeys != nil {
		t.Errorf("WithSkip(nil) on empty request = %v, want nil", empty.SkipKeys)
	}
}

// TestRequestJobs pins the shard rule of Request.Jobs, the expansion
// every server, the cluster router and local dtmsweep share: no
// shard_count is the whole sweep, a positive count selects one shard
// (the shards partition the sweep in spec order), and a negative count,
// an index without a count or an index out of range is an error rather
// than the whole sweep.
func TestRequestJobs(t *testing.T) {
	spec := testSpec()
	all := spec.Expand()
	keys := func(jobs []sweep.Job) []string {
		out := make([]string, len(jobs))
		for i, j := range jobs {
			out[i] = j.Key()
		}
		return out
	}
	for _, tc := range []struct {
		name         string
		index, count int
		wantErr      bool
	}{
		{"whole sweep", 0, 0, false},
		{"one shard", 0, 1, false},
		{"negative shard count", 0, -2, true},
		{"negative count and index", -1, -1, true},
		{"shard index without count", 1, 0, true},
		{"shard index out of range", 2, 2, true},
		{"negative shard index", -1, 2, true},
	} {
		jobs, err := Request{Spec: spec, ShardIndex: tc.index, ShardCount: tc.count}.Jobs()
		switch {
		case tc.wantErr && err == nil:
			t.Errorf("%s: got %d jobs and no error, want an error", tc.name, len(jobs))
		case !tc.wantErr && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case !tc.wantErr && !reflect.DeepEqual(keys(jobs), keys(all)):
			t.Errorf("%s: jobs %v, want the whole sweep %v", tc.name, keys(jobs), keys(all))
		}
	}
	var merged []string
	for shard := 0; shard < 2; shard++ {
		jobs, err := Request{Spec: spec, ShardIndex: shard, ShardCount: 2}.Jobs()
		if err != nil {
			t.Fatal(err)
		}
		merged = append(merged, keys(jobs)...)
	}
	want := keys(all)
	sort.Strings(merged)
	sort.Strings(want)
	if !reflect.DeepEqual(merged, want) {
		t.Errorf("two shards hold %v, want the sweep's jobs once each %v", merged, want)
	}
	skipped, err := Request{Spec: spec, SkipKeys: []string{all[0].Key()}}.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keys(skipped), keys(all[1:])) {
		t.Errorf("skip-set of the first job: jobs %v, want %v", keys(skipped), keys(all[1:]))
	}
}
