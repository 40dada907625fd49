package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/floorplan"
	"repro/internal/sweep"
	"repro/internal/thermal"
)

// smallSpec is the acceptance-criteria sweep: 2 scenarios x 2 policies,
// short enough to simulate for real in a unit test.
func smallSpec() sweep.Spec {
	return sweep.Spec{
		Scenarios:  sweep.ScenariosFor([]floorplan.Experiment{floorplan.EXP1, floorplan.EXP2}),
		Policies:   []string{"Default", "Adapt3D"},
		Benchmarks: []string{"Web-med"},
		Seed:       1,
		Solvers:    []thermal.SolverKind{thermal.SolverCached},
		DurationsS: []float64{1},
	}
}

func postSweep(t *testing.T, ts *httptest.Server, req SweepRequest, accept string) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		hr.Header.Set("Accept", accept)
	}
	resp, err := ts.Client().Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func getMetrics(t *testing.T, ts *httptest.Server) Metrics {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestServedStreamMatchesInProcessRun is the serving-layer drift gate:
// the JSONL streamed over HTTP for a 2-scenario x 2-policy spec must be
// byte-identical to the same spec executed in-process through the
// orchestrator, and a repeated identical request must be served from
// the result cache — hit counter up, not one new simulated tick.
func TestServedStreamMatchesInProcessRun(t *testing.T) {
	s := New(Config{Workers: 4})
	defer s.Stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := smallSpec()

	// The reference: the same spec, expanded and executed in-process,
	// streamed through the same canonical framing (expansion order,
	// ElapsedMS stripped).
	jobs := spec.Expand()
	var want bytes.Buffer
	run, _ := exp.NewRunners(exp.RunnerHooks{})
	if _, err := sweep.Execute(context.Background(), jobs, run, sweep.Options{Workers: 4},
		sweep.NewOrderedSink(sweep.StripElapsed(sweep.NewJSONLSink(&want)), jobs)); err != nil {
		t.Fatal(err)
	}

	resp := postSweep(t, ts, SweepRequest{Spec: spec}, "")
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/sweep: %d: %s", resp.StatusCode, got)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	if st := resp.Trailer.Get("X-Sweep-Status"); st != "complete" {
		t.Fatalf("X-Sweep-Status trailer = %q, want complete", st)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("served stream differs from in-process run:\nserved:\n%s\nin-process:\n%s", got, want.Bytes())
	}

	// Repeat the identical request: every record must come from the
	// result cache.
	before := getMetrics(t, ts)
	resp = postSweep(t, ts, SweepRequest{Spec: spec}, "")
	got2, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, want.Bytes()) {
		t.Fatal("cached replay differs from the first stream")
	}
	after := getMetrics(t, ts)
	if hits := after.CacheHits - before.CacheHits; hits != int64(len(jobs)) {
		t.Errorf("repeat request scored %d cache hits, want %d", hits, len(jobs))
	}
	if after.SimTicks != before.SimTicks {
		t.Errorf("repeat request simulated %d new ticks, want 0", after.SimTicks-before.SimTicks)
	}
	if after.JobsCompleted != before.JobsCompleted {
		t.Errorf("repeat request ran %d new jobs, want 0", after.JobsCompleted-before.JobsCompleted)
	}
	if before.SimTicks == 0 {
		t.Error("first request recorded no simulated ticks")
	}
}

// fakeRunner counts invocations per key and returns a deterministic
// record; block, when non-nil, stalls every run until it closes.
type fakeRunner struct {
	mu    sync.Mutex
	runs  map[string]int
	block chan struct{}
	fail  map[string]error
}

func newFakeRunner() *fakeRunner {
	return &fakeRunner{runs: make(map[string]int), fail: make(map[string]error)}
}

func (f *fakeRunner) run(ctx context.Context, j sweep.Job) (sweep.Record, error) {
	f.mu.Lock()
	f.runs[j.Key()]++
	block := f.block
	err := f.fail[j.Key()]
	f.mu.Unlock()
	if block != nil {
		select {
		case <-block:
		case <-ctx.Done():
			return sweep.Record{}, ctx.Err()
		}
	}
	if err != nil {
		return sweep.Record{}, err
	}
	return sweep.Record{Key: j.Key(), Scenario: j.Scenario.ID(), Policy: j.Policy,
		Bench: j.Bench, MaxTempC: float64(len(j.Key())), ElapsedMS: 99}, nil
}

func (f *fakeRunner) count(key string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.runs[key]
}

func (f *fakeRunner) total() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, c := range f.runs {
		n += c
	}
	return n
}

func allowAll(sweep.Job) error { return nil }

// TestConcurrentIdenticalRequestsSingleflight verifies two in-flight
// requests for the same spec share one simulation per job.
func TestConcurrentIdenticalRequestsSingleflight(t *testing.T) {
	fr := newFakeRunner()
	fr.block = make(chan struct{})
	s := New(Config{Workers: 4, Runner: fr.run, ValidateJob: allowAll})
	defer s.Stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := smallSpec()
	jobs := spec.Expand()
	var wg sync.WaitGroup
	streams := make([][]byte, 2)
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postSweep(t, ts, SweepRequest{Spec: spec}, "")
			defer resp.Body.Close()
			streams[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	// Wait until both requests are registered, then let the runs go.
	deadline := time.Now().Add(5 * time.Second)
	for {
		m := getMetrics(t, ts)
		if m.InflightJoins+m.CacheHits >= int64(len(jobs)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("second request never deduplicated: %+v", m)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(fr.block)
	wg.Wait()

	if !bytes.Equal(streams[0], streams[1]) {
		t.Fatal("concurrent identical requests streamed different bytes")
	}
	for _, j := range jobs {
		if n := fr.count(j.Key()); n != 1 {
			t.Errorf("job %s ran %d times, want 1", j.Key(), n)
		}
	}
	if got := fr.total(); got != len(jobs) {
		t.Errorf("%d runs total, want %d", got, len(jobs))
	}
}

// TestClientDisconnectCancelsJobs verifies the per-job context chain: a
// request that goes away cancels its queued and running jobs (no other
// request wants them), and the server stays healthy.
func TestClientDisconnectCancelsJobs(t *testing.T) {
	fr := newFakeRunner()
	fr.block = make(chan struct{}) // never closed: jobs only end by cancellation
	s := New(Config{Workers: 2, Runner: fr.run, ValidateJob: allowAll})
	defer s.Stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(SweepRequest{Spec: smallSpec()})
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sweep", bytes.NewReader(body))
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := ts.Client().Do(req)
		if err == nil {
			io.ReadAll(resp.Body)
			resp.Body.Close()
		}
	}()

	// Wait for jobs to be scheduled, then hang up.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if m := getMetrics(t, ts); m.ActiveJobs > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no job ever started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-done

	deadline = time.Now().Add(5 * time.Second)
	for {
		m := getMetrics(t, ts)
		if m.ActiveJobs == 0 && m.QueueDepth == 0 && m.RequestsActive == 0 {
			if m.JobsCanceled == 0 {
				t.Errorf("no job was accounted as canceled: %+v", m)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs never drained after disconnect: %+v", m)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFailedJobReportsErrorTrailer verifies a mid-stream run failure
// surfaces through the trailer while the already-streamed prefix stays
// valid JSONL.
func TestFailedJobReportsErrorTrailer(t *testing.T) {
	fr := newFakeRunner()
	spec := smallSpec()
	jobs := spec.Expand()
	fr.fail[jobs[len(jobs)-1].Key()] = fmt.Errorf("power model exploded")
	s := New(Config{Workers: 1, Runner: fr.run, ValidateJob: allowAll})
	defer s.Stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postSweep(t, ts, SweepRequest{Spec: spec}, "")
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st := resp.Trailer.Get("X-Sweep-Status"); st != "error" {
		t.Fatalf("X-Sweep-Status = %q, want error", st)
	}
	if msg := resp.Trailer.Get("X-Sweep-Error"); !strings.Contains(msg, "power model exploded") {
		t.Fatalf("X-Sweep-Error = %q", msg)
	}
	recs, err := sweep.LoadCheckpoint(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("streamed prefix is not valid JSONL: %v", err)
	}
	if len(recs) != len(jobs)-1 {
		t.Fatalf("streamed %d records before the failure, want %d", len(recs), len(jobs)-1)
	}
}

// TestSSEFraming verifies the Accept: text/event-stream framing carries
// every record plus a terminal done event.
func TestSSEFraming(t *testing.T) {
	fr := newFakeRunner()
	s := New(Config{Workers: 2, Runner: fr.run, ValidateJob: allowAll})
	defer s.Stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := smallSpec()
	jobs := spec.Expand()
	resp := postSweep(t, ts, SweepRequest{Spec: spec}, "text/event-stream")
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(body), "event: record\n"); got != len(jobs) {
		t.Errorf("SSE stream has %d record events, want %d", got, len(jobs))
	}
	if !strings.Contains(string(body), "event: done\n") {
		t.Error("SSE stream has no terminal done event")
	}
	if !strings.Contains(string(body), fmt.Sprintf(`{"records":%d}`, len(jobs))) {
		t.Error("done event does not report the record count")
	}
}

// flushCounter is an http.ResponseWriter and http.Flusher that counts
// writes and flushes and keeps a copy of the last write, allocating
// nothing once that copy has grown.
type flushCounter struct {
	header          http.Header
	writes, flushes int
	last            []byte
}

func (w *flushCounter) Header() http.Header { return w.header }
func (w *flushCounter) WriteHeader(int)     {}
func (w *flushCounter) Flush()              { w.flushes++ }
func (w *flushCounter) Write(b []byte) (int, error) {
	w.writes++
	w.last = append(w.last[:0], b...)
	return len(b), nil
}

// TestSSEEventAllocationFree pins the SSE writer's steady state: each
// event is one Write of the "event: …\ndata: …\n\n" envelope and no
// flush (the bytes wait in net/http's buffer until the producer is
// about to wait), and allocates nothing once the writer's buffer has
// grown.
func TestSSEEventAllocationFree(t *testing.T) {
	w := &flushCounter{header: http.Header{}}
	st := newSSE(w)
	data := []byte(`{"tick":3,"time_s":0.30000000000000004,"levels":null}`)
	avg := testing.AllocsPerRun(100, func() {
		if err := st.event("frame", data); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("sseStream.event made %.2f allocs/event, want 0", avg)
	}
	// AllocsPerRun makes one warm-up call before its 100.
	if w.writes != 101 || w.flushes != 0 {
		t.Fatalf("101 events made %d writes and %d flushes, want one write per event and no flush", w.writes, w.flushes)
	}
	if want := fmt.Sprintf("event: %s\ndata: %s\n\n", "frame", data); string(w.last) != want {
		t.Fatalf("event framed as %q, want %q", w.last, want)
	}
}

// TestCachedRecordRestampsBaselineFlag pins the baseline restamp:
// Baseline is the one job field outside the key, so a record cached
// under one spec's classification must be re-labeled per request —
// otherwise the stream stops being a pure function of the spec.
func TestCachedRecordRestampsBaselineFlag(t *testing.T) {
	fr := newFakeRunner()
	s := New(Config{Workers: 2, Runner: fr.run, ValidateJob: allowAll})
	defer s.Stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	base := sweep.Spec{
		Scenarios:  sweep.ScenariosFor([]floorplan.Experiment{floorplan.EXP1}),
		Benchmarks: []string{"Web-med"},
		DurationsS: []float64{1},
	}
	read := func(policies []string) map[string]sweep.Record {
		spec := base
		spec.Policies = policies
		resp := postSweep(t, ts, SweepRequest{Spec: spec}, "")
		defer resp.Body.Close()
		recs, err := sweep.LoadCheckpoint(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		byPolicy := make(map[string]sweep.Record)
		for _, r := range recs {
			byPolicy[r.Policy] = r
		}
		return byPolicy
	}

	// First spec omits Default, so its Default run is baseline-only.
	first := read([]string{"Adapt3D"})
	if !first["Default"].Baseline {
		t.Fatal("setup: Default should be a baseline-only run for the first spec")
	}
	// Second spec lists Default in the roster; the same job key now
	// hits the cache but must stream with Baseline=false.
	second := read([]string{"Default", "Adapt3D"})
	if second["Default"].Baseline {
		t.Fatal("cached Default record kept the first spec's baseline classification")
	}
	if fr.count(first["Default"].Key) != 1 {
		t.Fatalf("Default job ran %d times, want 1 (second request should hit the cache)", fr.count(first["Default"].Key))
	}
}

// TestReleaseRetiresInflightCall pins the release/join race fix: once
// the last interested request releases a call, a new request for the
// same job must start a fresh run, never join the doomed call and
// inherit its context.Canceled.
func TestReleaseRetiresInflightCall(t *testing.T) {
	fr := newFakeRunner()
	fr.block = make(chan struct{})
	s := New(Config{Workers: 1, Runner: fr.run, ValidateJob: allowAll})
	defer s.Stop()

	j := smallSpec().Expand()[0]
	p1 := s.acquire(j, true)
	if p1.c == nil {
		t.Fatal("first acquire should create a call")
	}
	s.release(p1.c) // last holder disconnects; the call is doomed

	p2 := s.acquire(j, true)
	if p2.c == nil {
		t.Fatal("second acquire should create a call, not hit the cache")
	}
	if p2.c == p1.c {
		t.Fatal("second acquire joined a call already doomed by the last release")
	}
	if n := s.met.inflightJoins.Load(); n != 0 {
		t.Errorf("inflight joins = %d, want 0", n)
	}

	close(fr.block)
	select {
	case <-p2.c.done:
	case <-time.After(5 * time.Second):
		t.Fatal("successor call never finished")
	}
	if p2.c.err != nil {
		t.Fatalf("successor call failed: %v (inherited the doomed call's cancellation?)", p2.c.err)
	}
	s.release(p2.c)
}

// sweepCase is one sweep request and the status a server answers it
// with.
type sweepCase struct {
	name string
	req  SweepRequest
	code int
}

// badSweepRequests are the requests the pre-stream gates refuse, with
// their statuses on a server whose MaxJobsPerSweep is 4.
func badSweepRequests() []sweepCase {
	return []sweepCase{
		{"empty spec", SweepRequest{}, http.StatusBadRequest},
		{"unknown policy", SweepRequest{Spec: sweep.Spec{
			Scenarios:  sweep.ScenariosFor([]floorplan.Experiment{floorplan.EXP1}),
			Policies:   []string{"NotAPolicy"},
			Benchmarks: []string{"Web-med"},
			DurationsS: []float64{1},
		}}, http.StatusBadRequest},
		{"unknown benchmark", SweepRequest{Spec: sweep.Spec{
			Scenarios:  sweep.ScenariosFor([]floorplan.Experiment{floorplan.EXP1}),
			Policies:   []string{"Default"},
			Benchmarks: []string{"NotABench"},
			DurationsS: []float64{1},
		}}, http.StatusBadRequest},
		{"shard index without count", SweepRequest{Spec: smallSpec(), ShardIndex: 1}, http.StatusBadRequest},
		{"negative shard count", SweepRequest{Spec: smallSpec(), ShardCount: -2}, http.StatusBadRequest},
		{"too many jobs", SweepRequest{Spec: sweep.Spec{
			Scenarios:  sweep.ScenariosFor(floorplan.AllExperiments()),
			Policies:   []string{"Default", "CGate", "Migr"},
			Benchmarks: []string{"Web-med", "Web-high"},
			DurationsS: []float64{1},
		}}, http.StatusRequestEntityTooLarge},
		// A few bytes of request must not expand to billions of jobs:
		// the size gate fires on the declared product, pre-expansion.
		{"billions of replicates", SweepRequest{Spec: sweep.Spec{
			Scenarios:  sweep.ScenariosFor([]floorplan.Experiment{floorplan.EXP1}),
			Policies:   []string{"Default"},
			Benchmarks: []string{"Web-med"},
			Replicates: 2_000_000_000,
			DurationsS: []float64{1},
		}}, http.StatusRequestEntityTooLarge},
		{"oversized grid", SweepRequest{Spec: sweep.Spec{
			Scenarios:  []sweep.Scenario{{Exp: floorplan.EXP1, GridRows: 5000, GridCols: 5000}},
			Policies:   []string{"Default"},
			Benchmarks: []string{"Web-med"},
			DurationsS: []float64{1},
		}}, http.StatusBadRequest},
		{"negative grid", SweepRequest{Spec: sweep.Spec{
			Scenarios:  []sweep.Scenario{{Exp: floorplan.EXP1, GridRows: -1, GridCols: -1}},
			Policies:   []string{"Default"},
			Benchmarks: []string{"Web-med"},
			DurationsS: []float64{1},
		}}, http.StatusBadRequest},
		{"absurd duration", SweepRequest{Spec: sweep.Spec{
			Scenarios:  sweep.ScenariosFor([]floorplan.Experiment{floorplan.EXP1}),
			Policies:   []string{"Default"},
			Benchmarks: []string{"Web-med"},
			DurationsS: []float64{1e12},
		}}, http.StatusBadRequest},
	}
}

// validSweepBody is a one-job sweep request.
const validSweepBody = `{"spec":{"scenarios":[{"exp":"EXP-1"}],"policies":["Default"],"benchmarks":["Web-med"],"durations_s":[1]}}`

// trailingData are the tails that make a valid body malformed: garbage,
// a stray closing bracket or brace, and a second document. Trailing
// whitespace alone does not (TestTrailingDataRejected).
var trailingData = []string{" garbage", "]", "}", "\n{}"}

// malformedBodies are request bodies that do not decode: broken JSON,
// an unknown field, and a valid sweep request followed by each of
// trailingData.
var malformedBodies = []string{
	"{not json", `{"spec":{},"bogus_field":1}`,
	validSweepBody + trailingData[0], validSweepBody + trailingData[1],
	validSweepBody + trailingData[2], validSweepBody + trailingData[3],
}

// TestTrailingDataRejected pins the one-document rule of the three
// routes that start work: a valid body followed by anything but
// whitespace gets a 400 before any job runs or any session opens, and
// the same body followed by whitespace and newlines is accepted.
func TestTrailingDataRejected(t *testing.T) {
	runner := newFakeRunner()
	s := New(Config{Workers: 1, Runner: runner.run, MaxJobsPerSweep: 64})
	defer s.Stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post := func(path, body string) int {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	work := func() int {
		runner.mu.Lock()
		defer runner.mu.Unlock()
		n := int(s.sessions.Stats().Opened)
		for _, c := range runner.runs {
			n += c
		}
		return n
	}
	job, err := json.Marshal(smallSpec().Expand()[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, route := range []struct{ path, body string }{
		{"/v1/sweep", validSweepBody},
		{"/v1/job", string(job)},
		{"/v1/session", sessionOpenBody},
	} {
		before := work()
		for _, tail := range trailingData {
			if code := post(route.path, route.body+tail); code != http.StatusBadRequest {
				t.Errorf("%s with trailing %q: status %d, want 400", route.path, tail, code)
			}
		}
		if n := work() - before; n != 0 {
			t.Errorf("%s: bodies with trailing data started %d runs or sessions", route.path, n)
		}
		if code := post(route.path, route.body+" \n\t\r\n"); code != http.StatusOK {
			t.Errorf("%s with trailing whitespace: status %d, want 200", route.path, code)
		}
	}
}

// TestNegativeGridRejected checks that a scenario with a negative grid
// dimension gets a 400 on each of the three routes that start work,
// before any job runs or any session opens, instead of running in
// block mode under the block-mode key.
func TestNegativeGridRejected(t *testing.T) {
	runner := newFakeRunner()
	s := New(Config{Workers: 1, Runner: runner.run})
	defer s.Stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	const job = `{"scenario":{"exp":1,"grid_rows":-1,"grid_cols":-1},"policy":"Default","bench":"Web-med","seed":1,"duration_s":1}`
	for _, route := range []struct{ path, body string }{
		{"/v1/sweep", `{"spec":{"scenarios":[{"exp":"EXP-1","grid_rows":-1,"grid_cols":-1}],"policies":["Default"],"benchmarks":["Web-med"],"durations_s":[1]}}`},
		{"/v1/job", job},
		{"/v1/session", `{"job":` + job + `}`},
	} {
		resp, err := ts.Client().Post(ts.URL+route.path, "application/json", strings.NewReader(route.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "negative grid") {
			t.Errorf("%s: status %d (%s), want 400 naming the negative grid", route.path, resp.StatusCode, body)
		}
	}
	runner.mu.Lock()
	defer runner.mu.Unlock()
	if len(runner.runs) != 0 || s.sessions.Stats().Opened != 0 {
		t.Errorf("negative grids started %d runs and %d sessions", len(runner.runs), s.sessions.Stats().Opened)
	}
}

// TestRequestValidation covers the pre-stream rejection paths.
func TestRequestValidation(t *testing.T) {
	s := New(Config{Workers: 1, Runner: newFakeRunner().run, MaxJobsPerSweep: 4})
	defer s.Stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range badSweepRequests() {
		resp := postSweep(t, ts, tc.req, "")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.code)
		}
	}

	// Malformed JSON and unknown fields are rejected too.
	for _, body := range malformedBodies {
		resp, err := ts.Client().Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestShardAndSkipKeys verifies the request-level sharding and resume
// plumbing mirror the local sweep mode.
func TestShardAndSkipKeys(t *testing.T) {
	fr := newFakeRunner()
	s := New(Config{Workers: 2, Runner: fr.run, ValidateJob: allowAll})
	defer s.Stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := smallSpec()
	all := spec.Expand()
	var got []sweep.Record
	for shard := 0; shard < 2; shard++ {
		resp := postSweep(t, ts, SweepRequest{Spec: spec, ShardIndex: shard, ShardCount: 2}, "")
		recs, err := sweep.LoadCheckpoint(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, recs...)
	}
	if len(sweep.Dedup(got)) != len(all) {
		t.Fatalf("2-way sharded requests yielded %d unique records, want %d", len(sweep.Dedup(got)), len(all))
	}

	skip := []string{all[0].Key(), all[1].Key()}
	resp := postSweep(t, ts, SweepRequest{Spec: spec, SkipKeys: skip}, "")
	recs, err := sweep.LoadCheckpoint(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(all)-2 {
		t.Fatalf("skip request streamed %d records, want %d", len(recs), len(all)-2)
	}
	for _, r := range recs {
		if r.Key == skip[0] || r.Key == skip[1] {
			t.Errorf("skipped job %s was streamed", r.Key)
		}
	}

	// A skip-set covering the whole sweep — a -remote -resume rerun of
	// a finished sweep — is an empty success, not an error.
	var allKeys []string
	for _, j := range all {
		allKeys = append(allKeys, j.Key())
	}
	resp = postSweep(t, ts, SweepRequest{Spec: spec, SkipKeys: allKeys}, "")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) != 0 {
		t.Fatalf("fully-skipped sweep: status %d body %q, want 200 with empty stream", resp.StatusCode, body)
	}
	if st := resp.Trailer.Get("X-Sweep-Status"); st != "complete" {
		t.Fatalf("fully-skipped sweep trailer = %q, want complete", st)
	}
}

// TestNamedScenariosDoNotCollideInCache is the cache-poisoning guard:
// two requests naming their scenarios identically but configuring them
// differently must not share cached results.
func TestNamedScenariosDoNotCollideInCache(t *testing.T) {
	fr := newFakeRunner()
	s := New(Config{Workers: 1, Runner: fr.run, ValidateJob: allowAll})
	defer s.Stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	mk := func(e floorplan.Experiment) sweep.Spec {
		return sweep.Spec{
			Scenarios:  []sweep.Scenario{{Name: "prod", Exp: e}},
			Policies:   []string{"Default"},
			Benchmarks: []string{"Web-med"},
			DurationsS: []float64{1},
		}
	}
	read := func(spec sweep.Spec) []sweep.Record {
		resp := postSweep(t, ts, SweepRequest{Spec: spec}, "")
		defer resp.Body.Close()
		recs, err := sweep.LoadCheckpoint(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	a, b := read(mk(floorplan.EXP1)), read(mk(floorplan.EXP2))
	if len(a) != 1 || len(b) != 1 {
		t.Fatalf("expected 1 record each, got %d and %d", len(a), len(b))
	}
	if a[0].Key == b[0].Key {
		t.Fatalf("different physics behind the same name share job key %q (cache poisoning)", a[0].Key)
	}
	if fr.total() != 2 {
		t.Fatalf("%d runs, want 2 (second spec must not be served from the first's cache entry)", fr.total())
	}
}

// TestEndpointsAndStop covers the operational surface: index, healthz,
// metrics, and draining behavior after Stop.
func TestEndpointsAndStop(t *testing.T) {
	s := New(Config{Workers: 1, Runner: newFakeRunner().run, ValidateJob: allowAll})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	index, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(index), "/v1/sweep") {
		t.Errorf("index: %d %q", resp.StatusCode, index)
	}

	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health["status"] != "ok" {
		t.Errorf("healthz: %d %v", resp.StatusCode, health)
	}

	if m := getMetrics(t, ts); m.Workers != 1 || m.CacheCapacity == 0 {
		t.Errorf("metrics snapshot looks wrong: %+v", m)
	}

	// Draining: health flips to 503 and new sweeps are refused the
	// moment shutdown begins, before jobs are canceled.
	s.Drain()
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var drainHealth map[string]any
	json.NewDecoder(resp.Body).Decode(&drainHealth)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || drainHealth["status"] != "draining" {
		t.Errorf("healthz during drain: %d %v, want 503 draining", resp.StatusCode, drainHealth)
	}
	resp = postSweep(t, ts, SweepRequest{Spec: smallSpec()}, "")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("sweep during drain: %d, want 503", resp.StatusCode)
	}

	s.Stop()
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz after Stop: %d, want 503", resp.StatusCode)
	}
	resp = postSweep(t, ts, SweepRequest{Spec: smallSpec()}, "")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("sweep after Stop: %d, want 503", resp.StatusCode)
	}
}

// TestRequestsTotalCountsAPIOnly pins the route table's accounting:
// every /v1 request counts once in requests_total, whatever its status,
// while the index, /healthz and /metrics never count, and no request is
// left active.
func TestRequestsTotalCountsAPIOnly(t *testing.T) {
	s := New(Config{Workers: 1, Runner: newFakeRunner().run, ValidateJob: allowAll})
	defer s.Stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	post := func(path, body string) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	job := `{"scenario":{"exp":1},"policy":"Default","bench":"gzip","seed":9,"duration_s":1}`
	get("/healthz")
	post("/v1/job", job)
	get("/metrics")
	resp := postSweep(t, ts, SweepRequest{Spec: smallSpec()}, "")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	get("/")
	post("/v1/job", "not json")       // 400, still an API request
	get("/v1/session/no-such-id/log") // 404, still an API request
	post("/v1/session/no-such-id/event", `{"type":"fail_tsv"}`)
	get("/healthz")
	const apiCalls = 5

	m := getMetrics(t, ts)
	if m.RequestsTotal != apiCalls {
		t.Errorf("requests_total = %d after %d API calls and 4 uncounted ones, want %d", m.RequestsTotal, apiCalls, apiCalls)
	}
	if m.RequestsActive != 0 {
		t.Errorf("requests_active = %d with no request in flight, want 0", m.RequestsActive)
	}
}

// scenarioCase is one stack scenario and the status a one-job sweep of
// it is answered with.
type scenarioCase struct {
	name string
	sc   sweep.Scenario
	code int
}

// stackScenarioCases are the stack admission rows: valid inline,
// registered-name, and builtin scenarios, and selector conflicts,
// unknown names, size-gate breaches, broken geometry, physics above its
// bounds and a negative joint resistivity. It registers the stack the
// registered-name rows use.
func stackScenarioCases(tb testing.TB) []scenarioCase {
	tb.Helper()
	inline := &floorplan.StackSpec{
		Name:   "served-inline",
		Layers: []floorplan.LayerSpec{{Template: "memory"}, {Template: "cores"}},
	}
	registered := floorplan.StackSpec{
		Name:   "served-registered",
		Layers: []floorplan.LayerSpec{{Template: "mixed"}, {Template: "mixed"}},
	}
	if err := floorplan.RegisterStackSpec(registered); err != nil {
		tb.Fatal(err)
	}

	// An inline spec whose block count passes the per-block validation
	// but breaches the pre-expansion size gate: one layer, 4097 thin
	// explicit blocks.
	tooManyBlocks := &floorplan.StackSpec{Name: "too-many-blocks"}
	var blocks []floorplan.BlockSpec
	for i := 0; i < floorplan.MaxSpecBlocks+1; i++ {
		blocks = append(blocks, floorplan.BlockSpec{
			Name: fmt.Sprintf("b%d", i), Kind: "other",
			X: float64(i) * 0.001, Y: 0, W: 0.001, H: 10,
		})
	}
	tooManyBlocks.Layers = []floorplan.LayerSpec{{Blocks: blocks}}

	tooManyLayers := &floorplan.StackSpec{Name: "too-many-layers"}
	for i := 0; i <= floorplan.MaxSpecLayers; i++ {
		tooManyLayers.Layers = append(tooManyLayers.Layers, floorplan.LayerSpec{Template: "memory"})
	}

	// Declaratively valid, geometrically broken: one block that does
	// not tile the die. Caught by the Build step of the validator.
	badGeometry := &floorplan.StackSpec{
		Name:   "bad-geometry",
		Layers: []floorplan.LayerSpec{{Blocks: []floorplan.BlockSpec{{Name: "b", Kind: "core", W: 1, H: 1}}}},
	}
	// Above a physics bound: records would read +Inf °C, or the solve
	// would be singular.
	hugePower := &floorplan.StackSpec{
		Layers: []floorplan.LayerSpec{{Template: "memory"}, {Template: "cores", PowerScale: 1e308}},
	}
	hugeThickness := &floorplan.StackSpec{
		Layers: []floorplan.LayerSpec{{Template: "memory", ThicknessMM: 1e300}, {Template: "cores"}},
	}

	return []scenarioCase{
		{"inline ok", sweep.Scenario{Stack: &sweep.StackRef{Spec: inline}}, http.StatusOK},
		{"registered ok", sweep.Scenario{Stack: &sweep.StackRef{Name: "served-registered"}}, http.StatusOK},
		{"inline grid ok", sweep.Scenario{Stack: &sweep.StackRef{Spec: inline}, GridRows: 8, GridCols: 8}, http.StatusOK},
		{"exp and stack", sweep.Scenario{Exp: floorplan.EXP1, Stack: &sweep.StackRef{Spec: inline}}, http.StatusBadRequest},
		{"jr on stack", sweep.Scenario{Stack: &sweep.StackRef{Spec: inline}, JointResistivityMKW: 0.1}, http.StatusBadRequest},
		{"unknown name", sweep.Scenario{Stack: &sweep.StackRef{Name: "never-registered"}}, http.StatusBadRequest},
		{"block gate", sweep.Scenario{Stack: &sweep.StackRef{Spec: tooManyBlocks}}, http.StatusBadRequest},
		{"layer gate", sweep.Scenario{Stack: &sweep.StackRef{Spec: tooManyLayers}}, http.StatusBadRequest},
		{"bad geometry", sweep.Scenario{Stack: &sweep.StackRef{Spec: badGeometry}}, http.StatusBadRequest},
		{"power_scale bound", sweep.Scenario{Stack: &sweep.StackRef{Spec: hugePower}}, http.StatusBadRequest},
		{"thickness bound", sweep.Scenario{Stack: &sweep.StackRef{Spec: hugeThickness}}, http.StatusBadRequest},
		{"exp jr ok", sweep.Scenario{Exp: floorplan.EXP4, JointResistivityMKW: 0.46}, http.StatusOK},
		{"negative jr", sweep.Scenario{Exp: floorplan.EXP4, JointResistivityMKW: -0.46}, http.StatusBadRequest},
	}
}

// oneJobSpec is the one-job sweep of a scenario.
func oneJobSpec(sc sweep.Scenario) sweep.Spec {
	return sweep.Spec{
		Scenarios:  []sweep.Scenario{sc},
		Policies:   []string{"Default"},
		Benchmarks: []string{"Web-med"},
		DurationsS: []float64{1},
	}
}

// TestStackScenarioValidation walks the stack admission paths: valid
// inline, registered-name, and builtin scenarios are accepted, while
// selector conflicts, unknown names, pre-expansion size-gate breaches,
// specs with broken geometry or physics above its bounds, and a
// negative joint resistivity are all refused before any job runs.
func TestStackScenarioValidation(t *testing.T) {
	s := New(Config{Workers: 1, Runner: newFakeRunner().run})
	defer s.Stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range stackScenarioCases(t) {
		resp := postSweep(t, ts, SweepRequest{Spec: oneJobSpec(tc.sc)}, "")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.code)
		}
	}
}
