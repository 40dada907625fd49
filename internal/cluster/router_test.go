package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/floorplan"
	"repro/internal/sweep"
	"repro/internal/thermal"
)

func testSpec() sweep.Spec {
	return sweep.Spec{
		Scenarios:  sweep.ScenariosFor([]floorplan.Experiment{floorplan.EXP1, floorplan.EXP2}),
		Policies:   []string{"Default", "Adapt3D"},
		Benchmarks: []string{"Web-med"},
		Replicates: 2,
		Seed:       1,
		Solvers:    []thermal.SolverKind{thermal.SolverCached},
		DurationsS: []float64{1},
	}
}

// fakeRecord is the deterministic record every fake backend answers for
// a job, so a merged stream is comparable whichever backend served
// which key.
func fakeRecord(j sweep.Job) sweep.Record {
	return sweep.Record{Key: j.Key(), Scenario: j.Scenario.ID(), Policy: j.Policy,
		Bench: j.Bench, Replicate: j.Replicate, MaxTempC: float64(len(j.Key()))}
}

// fakeBackend speaks the dtmserved wire protocol (JSONL + completion
// trailer) without simulating anything, and can be told to die
// mid-stream: the request in flight aborts without a trailer after
// dieAfter records, and every later request answers 503. A rejecting
// backend answers every sweep with a permanent 400.
type fakeBackend struct {
	ts       *httptest.Server
	dieAfter atomic.Int32 // records to stream before dying; -1: healthy forever
	died     atomic.Bool
	reject   atomic.Bool

	mu     sync.Mutex
	served map[string]int // key -> times streamed by this backend
}

func newFakeBackend(t *testing.T, dieAfter int32) *fakeBackend {
	t.Helper()
	b := &fakeBackend{served: make(map[string]int)}
	b.dieAfter.Store(dieAfter)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if b.died.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	})
	mux.HandleFunc("POST /v1/sweep", func(w http.ResponseWriter, r *http.Request) {
		if b.reject.Load() {
			http.Error(w, `{"error":"bad request"}`, http.StatusBadRequest)
			return
		}
		if b.died.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		var req client.Request
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		jobs, err := req.Jobs()
		if err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		for i, j := range jobs {
			if die := b.dieAfter.Load(); die >= 0 && int32(i) == die {
				b.died.Store(true)
				w.(http.Flusher).Flush()
				panic(http.ErrAbortHandler) // cut the stream, no trailer
			}
			b.mu.Lock()
			b.served[j.Key()]++
			b.mu.Unlock()
			enc.Encode(fakeRecord(j))
			w.(http.Flusher).Flush()
		}
		w.Header().Set(http.TrailerPrefix+"X-Sweep-Status", "complete")
	})
	b.ts = httptest.NewServer(mux)
	t.Cleanup(b.ts.Close)
	return b
}

// tightClient is the test client factory: minimal backoff so failover
// paths run in microseconds.
func tightClient(base string) *client.Client {
	return &client.Client{BaseURL: base, MaxRetries: 1, Backoff: time.Millisecond, MaxBackoff: time.Millisecond}
}

func newTestRouter(t *testing.T, backends ...*fakeBackend) *Router {
	t.Helper()
	urls := make([]string, len(backends))
	for i, b := range backends {
		urls[i] = b.ts.URL
	}
	r, err := New(Config{
		Backends:  urls,
		NewClient: tightClient,
		// Far beyond the test's lifetime: failover must come from the
		// router's own stream observations, not probe luck.
		ProbeInterval: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

func collectStream(t *testing.T, r *Router, spec sweep.Spec) []sweep.Record {
	t.Helper()
	var got []sweep.Record
	n, err := r.Stream(context.Background(), client.Request{Spec: spec}, func(rec sweep.Record) error {
		got = append(got, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(got) {
		t.Fatalf("Stream reported %d records but emitted %d", n, len(got))
	}
	return got
}

func assertCanonical(t *testing.T, jobs []sweep.Job, got []sweep.Record) {
	t.Helper()
	if len(got) != len(jobs) {
		t.Fatalf("merged stream delivered %d records, want %d", len(got), len(jobs))
	}
	for i, j := range jobs {
		if !reflect.DeepEqual(got[i], fakeRecord(j)) {
			t.Fatalf("record %d is %+v, want %+v (canonical order violated?)", i, got[i], fakeRecord(j))
		}
	}
}

// TestRouterMergesPartitionedStreams is the tentpole's happy path: a
// 3-backend router must deliver the canonical record sequence (same as
// one node serving the whole sweep), with every key streamed by exactly
// its rendezvous owner.
func TestRouterMergesPartitionedStreams(t *testing.T) {
	backends := []*fakeBackend{newFakeBackend(t, -1), newFakeBackend(t, -1), newFakeBackend(t, -1)}
	r := newTestRouter(t, backends...)
	spec := testSpec()
	jobs := spec.Expand()

	assertCanonical(t, jobs, collectStream(t, r, spec))

	nodes := make([]string, len(backends))
	for i, b := range backends {
		nodes[i] = b.ts.URL
	}
	perOwner := 0
	for _, j := range jobs {
		owner := Owner(nodes, j.Key())
		for i, b := range backends {
			b.mu.Lock()
			n := b.served[j.Key()]
			b.mu.Unlock()
			switch {
			case i == owner && n > 0:
				perOwner++
			case i != owner && n > 0:
				t.Errorf("key %s streamed by %s, but its owner is %s", j.Key(), b.ts.URL, nodes[owner])
			}
		}
	}
	if perOwner == 0 {
		t.Fatal("no key was served by its owner")
	}
	if m := r.Metrics(); m.ReroutedJobs != 0 || m.BackendRetries != 0 {
		t.Errorf("healthy cluster moved failure counters: %+v", m)
	}
}

// TestRouterFailoverMidSweep kills one backend after its first streamed
// record: the merged output must STILL be byte-equal to the canonical
// sequence, with the dead node's unreceived keys re-routed to their
// rendezvous runner-up, and the failure counters must move.
func TestRouterFailoverMidSweep(t *testing.T) {
	spec := testSpec()
	jobs := spec.Expand()

	// Build 3 backends and make the one owning the most keys die after
	// one record. Ownership follows the servers' random ports, so pick
	// the dying node after the URLs are known: it must own at least 2
	// keys (one it serves, one it dies owing), which the busiest of 3
	// nodes does whenever there are 4+ jobs.
	backends := []*fakeBackend{newFakeBackend(t, -1), newFakeBackend(t, -1), newFakeBackend(t, -1)}
	nodes := make([]string, len(backends))
	for i, b := range backends {
		nodes[i] = b.ts.URL
	}
	owned := make([]int, len(backends))
	for _, j := range jobs {
		owned[Owner(nodes, j.Key())]++
	}
	dying := 0
	for i, n := range owned {
		if n > owned[dying] {
			dying = i
		}
	}
	if owned[dying] < 2 {
		t.Fatalf("busiest backend owns %d of %d keys; need 2+ for a meaningful failover", owned[dying], len(jobs))
	}
	backends[dying].dieAfter.Store(1)

	r := newTestRouter(t, backends...)
	assertCanonical(t, jobs, collectStream(t, r, spec))

	m := r.Metrics()
	if m.ReroutedJobs == 0 {
		t.Error("no jobs counted as re-routed after a mid-sweep backend death")
	}
	if m.BackendRetries == 0 {
		t.Error("no backend retries counted after a mid-sweep backend death")
	}
	// The survivors must have picked up everything the dead node owed.
	for _, j := range jobs {
		total := 0
		for _, b := range backends {
			b.mu.Lock()
			total += b.served[j.Key()]
			b.mu.Unlock()
		}
		if total == 0 {
			t.Errorf("key %s was never streamed by any backend", j.Key())
		}
	}
}

// TestRouterAbortsOnPermanentError pins the failure classification: a
// backend rejecting the request (4xx) is not a death to route around —
// every backend would reject the same request — so the stream fails.
func TestRouterAbortsOnPermanentError(t *testing.T) {
	// Ownership follows the servers' random ports, so pick the rejecter
	// after the URLs are known: the backend owning the most of the
	// spec's keys, which owns at least one, so the router must ask it.
	backends := []*fakeBackend{newFakeBackend(t, -1), newFakeBackend(t, -1)}
	nodes := []string{backends[0].ts.URL, backends[1].ts.URL}
	owned := make([]int, len(backends))
	for _, j := range testSpec().Expand() {
		owned[Owner(nodes, j.Key())]++
	}
	rejecter := 0
	if owned[1] > owned[0] {
		rejecter = 1
	}
	backends[rejecter].reject.Store(true)

	r := newTestRouter(t, backends...)
	_, err := r.Stream(context.Background(), client.Request{Spec: testSpec()}, func(sweep.Record) error { return nil })
	if err == nil {
		t.Fatal("router swallowed a permanent backend rejection")
	}
	if m := r.Metrics(); m.ReroutedJobs != 0 {
		t.Errorf("permanent rejection re-routed %d jobs; must abort instead", m.ReroutedJobs)
	}
}
