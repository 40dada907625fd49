package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/sweep"
)

// peerMarker distinguishes records fabricated by the fake peer from
// records the local fake runner produces (which use len(key)).
const peerMarker = 777.0

// fakePeer is a fake cluster node answering POST /v1/job with marked
// records. It records every key asked of it and whether the request
// carried the peer-fill header.
type fakePeer struct {
	ts *httptest.Server

	mu        sync.Mutex
	asked     map[string]int
	badHeader int // requests that arrived WITHOUT the peer-fill header
}

func newFakePeer(t *testing.T) *fakePeer {
	t.Helper()
	p := &fakePeer{asked: make(map[string]int)}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/job", func(w http.ResponseWriter, r *http.Request) {
		var j sweep.Job
		if err := json.NewDecoder(r.Body).Decode(&j); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		p.mu.Lock()
		p.asked[j.Key()]++
		if r.Header.Get(client.PeerFillHeader) == "" {
			p.badHeader++
		}
		p.mu.Unlock()
		json.NewEncoder(w).Encode(sweep.Record{Key: j.Key(), Scenario: j.Scenario.ID(),
			Policy: j.Policy, Bench: j.Bench, MaxTempC: peerMarker})
	})
	p.ts = httptest.NewServer(mux)
	t.Cleanup(p.ts.Close)
	return p
}

func (p *fakePeer) askedCount(key string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.asked[key]
}

// tightPeerClient keeps peer-fill failure paths fast in tests.
func tightPeerClient(base string) *client.Client {
	return &client.Client{BaseURL: base, MaxRetries: 1, Backoff: time.Millisecond, MaxBackoff: time.Millisecond}
}

// splitByOwner picks a self identity such that both this node and the
// peer own at least one of the jobs, and returns the peer-owned keys.
// Ownership is a pure function of the two URL strings, and the peer's
// httptest port varies per run, so the test derives the split instead
// of assuming one.
func splitByOwner(t *testing.T, jobs []sweep.Job, peerURL string) (self string, peerOwned map[string]bool) {
	t.Helper()
	for i := 0; i < 64; i++ {
		self = fmt.Sprintf("http://self-%d:8080", i)
		nodes := []string{self, peerURL}
		peerOwned = make(map[string]bool)
		for _, j := range jobs {
			if nodes[cluster.Owner(nodes, j.Key())] == peerURL {
				peerOwned[j.Key()] = true
			}
		}
		if len(peerOwned) > 0 && len(peerOwned) < len(jobs) {
			return self, peerOwned
		}
	}
	t.Fatal("could not find a self identity splitting ownership")
	return "", nil
}

// TestPeerFillServesPeerOwnedKeys: with a 2-node peer list, a sweep hit
// on this node must fetch every peer-owned key from the owner (marked
// records, peer_fills counter) and simulate only its own keys locally.
func TestPeerFillServesPeerOwnedKeys(t *testing.T) {
	peer := newFakePeer(t)
	spec := smallSpec()
	jobs := spec.Expand()
	self, peerOwned := splitByOwner(t, jobs, peer.ts.URL)

	fr := newFakeRunner()
	s := New(Config{Workers: 2, Runner: fr.run, ValidateJob: allowAll,
		Peers: []string{self, peer.ts.URL}, Self: self, PeerClient: tightPeerClient})
	defer s.Stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postSweep(t, ts, SweepRequest{Spec: spec}, "")
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	seen := 0
	for dec.More() {
		var rec sweep.Record
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		seen++
		if peerOwned[rec.Key] && rec.MaxTempC != peerMarker {
			t.Errorf("peer-owned key %s was not served by the peer", rec.Key)
		}
		if !peerOwned[rec.Key] && rec.MaxTempC == peerMarker {
			t.Errorf("self-owned key %s was fetched from the peer", rec.Key)
		}
	}
	if seen != len(jobs) {
		t.Fatalf("streamed %d records, want %d", seen, len(jobs))
	}
	for _, j := range jobs {
		wantLocal := 0
		if !peerOwned[j.Key()] {
			wantLocal = 1
		}
		if got := fr.count(j.Key()); got != wantLocal {
			t.Errorf("key %s ran locally %d times, want %d", j.Key(), got, wantLocal)
		}
		wantPeer := 1 - wantLocal
		if got := peer.askedCount(j.Key()); got != wantPeer {
			t.Errorf("key %s asked of the peer %d times, want %d", j.Key(), got, wantPeer)
		}
	}
	m := getMetrics(t, ts)
	if m.PeerFills != int64(len(peerOwned)) {
		t.Errorf("peer_fills_total = %d, want %d", m.PeerFills, len(peerOwned))
	}
	if m.ReroutedJobs != 0 || m.BackendRetries != 0 {
		t.Errorf("healthy peer moved failure counters: rerouted=%d retries=%d", m.ReroutedJobs, m.BackendRetries)
	}
	peer.mu.Lock()
	defer peer.mu.Unlock()
	if peer.badHeader != 0 {
		t.Errorf("%d peer-fill requests arrived without the loop-guard header", peer.badHeader)
	}
}

// TestPeerFillLoopGuard: a request that itself carries the peer-fill
// header must be answered with local work only — the fake peer fails
// the test if the server forwards another hop.
func TestPeerFillLoopGuard(t *testing.T) {
	peer := newFakePeer(t)
	spec := smallSpec()
	jobs := spec.Expand()
	self, peerOwned := splitByOwner(t, jobs, peer.ts.URL)

	fr := newFakeRunner()
	s := New(Config{Workers: 2, Runner: fr.run, ValidateJob: allowAll,
		Peers: []string{self, peer.ts.URL}, Self: self, PeerClient: tightPeerClient})
	defer s.Stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Pick a job the PEER owns and ask this (non-owner) node for it
	// with the header set, as if we were the owner peer-filling.
	var job sweep.Job
	for _, j := range jobs {
		if peerOwned[j.Key()] {
			job = j
			break
		}
	}
	body, _ := json.Marshal(job)
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/job", bytes.NewReader(body))
	req.Header.Set(client.PeerFillHeader, "1")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("loop-guarded job request answered %s", resp.Status)
	}
	var rec sweep.Record
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	if rec.Key != job.Key() {
		t.Fatalf("answered key %q, want %q", rec.Key, job.Key())
	}
	if rec.MaxTempC == peerMarker {
		t.Error("loop-guarded request was forwarded to the peer")
	}
	if got := peer.askedCount(job.Key()); got != 0 {
		t.Errorf("peer was asked %d times despite the loop guard", got)
	}
	if got := fr.count(job.Key()); got != 1 {
		t.Errorf("job ran locally %d times, want 1", got)
	}
	if m := getMetrics(t, ts); m.PeerFills != 0 {
		t.Errorf("peer_fills_total = %d, want 0", m.PeerFills)
	}
}

// TestPeerFillDeadOwnerFallsBackLocally: an unreachable owner degrades
// locality, not correctness — the sweep still completes from local
// simulation, with retries and re-routes counted.
func TestPeerFillDeadOwnerFallsBackLocally(t *testing.T) {
	// A peer URL nothing listens on: connections are refused instantly.
	deadPeer := "http://127.0.0.1:1"
	spec := smallSpec()
	jobs := spec.Expand()
	self, peerOwned := splitByOwner(t, jobs, deadPeer)

	fr := newFakeRunner()
	s := New(Config{Workers: 2, Runner: fr.run, ValidateJob: allowAll,
		Peers: []string{self, deadPeer}, Self: self, PeerClient: tightPeerClient})
	defer s.Stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postSweep(t, ts, SweepRequest{Spec: spec}, "")
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	seen := 0
	for dec.More() {
		var rec sweep.Record
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		seen++
	}
	if seen != len(jobs) {
		t.Fatalf("streamed %d records, want %d", seen, len(jobs))
	}
	for _, j := range jobs {
		if got := fr.count(j.Key()); got != 1 {
			t.Errorf("key %s ran locally %d times, want 1 (dead peer must not lose jobs)", j.Key(), got)
		}
	}
	m := getMetrics(t, ts)
	if m.ReroutedJobs != int64(len(peerOwned)) {
		t.Errorf("rerouted_jobs_total = %d, want %d", m.ReroutedJobs, len(peerOwned))
	}
	if m.BackendRetries < int64(len(peerOwned)) {
		t.Errorf("backend_retries_total = %d, want >= %d", m.BackendRetries, len(peerOwned))
	}
	if m.PeerFills != 0 {
		t.Errorf("peer_fills_total = %d, want 0", m.PeerFills)
	}
}

// TestJobEndpoint covers /v1/job outside the cluster path: it shares
// validation and the result cache with /v1/sweep.
func TestJobEndpoint(t *testing.T) {
	fr := newFakeRunner()
	s := New(Config{Workers: 1, Runner: fr.run})
	defer s.Stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	job := smallSpec().Expand()[0]
	post := func() sweep.Record {
		t.Helper()
		body, _ := json.Marshal(job)
		resp, err := ts.Client().Post(ts.URL+"/v1/job", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/job answered %s", resp.Status)
		}
		var rec sweep.Record
		if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
			t.Fatal(err)
		}
		return rec
	}
	if rec := post(); rec.Key != job.Key() {
		t.Fatalf("answered key %q, want %q", rec.Key, job.Key())
	}
	if rec := post(); rec.Key != job.Key() {
		t.Fatalf("answered key %q, want %q", rec.Key, job.Key())
	}
	if got := fr.count(job.Key()); got != 1 {
		t.Errorf("job ran %d times over 2 requests, want 1 (cache)", got)
	}
	if m := getMetrics(t, ts); m.CacheHits != 1 {
		t.Errorf("cache_hits_total = %d, want 1", m.CacheHits)
	}

	// A malformed body and an invalid job are both 400s.
	resp, err := ts.Client().Post(ts.URL+"/v1/job", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed job body answered %s, want 400", resp.Status)
	}
	bad := job
	bad.Policy = "NoSuchPolicy"
	body, _ := json.Marshal(bad)
	resp, err = ts.Client().Post(ts.URL+"/v1/job", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid job answered %s, want 400", resp.Status)
	}
}

// heldTransport holds every outbound request until want requests have
// started, then forwards them all.
type heldTransport struct {
	want int

	mu      sync.Mutex
	started int
	all     chan struct{}
}

func (h *heldTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	h.mu.Lock()
	h.started++
	if h.started == h.want {
		close(h.all)
	}
	h.mu.Unlock()
	select {
	case <-h.all:
	case <-r.Context().Done():
		return nil, r.Context().Err()
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestPeerFillHoldsNoWorker: two single-worker nodes, each asked for a
// cold key the other owns, peer-fill from each other at the same time.
// A fill must not occupy the worker the owner needs to answer the
// other node's fill, or both nodes wait on each other until the
// requesters give up.
func TestPeerFillHoldsNoWorker(t *testing.T) {
	var handlers [2]http.Handler
	var nodes [2]*httptest.Server
	for i := range nodes {
		nodes[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			handlers[i].ServeHTTP(w, r)
		}))
		defer nodes[i].Close()
	}
	peers := []string{nodes[0].URL, nodes[1].URL}

	// owned[i] is a job node i owns, so node 1-i must peer-fill it.
	var owned [2]*sweep.Job
	spec := smallSpec()
	spec.Replicates = 8
	for _, j := range spec.Expand() {
		if o := cluster.Owner(peers, j.Key()); owned[o] == nil {
			owned[o] = &j
		}
	}
	if owned[0] == nil || owned[1] == nil {
		t.Fatal("no job split found between the two nodes")
	}

	held := &heldTransport{want: 2, all: make(chan struct{})}
	var runners [2]*fakeRunner
	var servers [2]*Server
	for i := range servers {
		runners[i] = newFakeRunner()
		servers[i] = New(Config{Workers: 1, Runner: runners[i].run, ValidateJob: allowAll,
			Peers: peers, Self: peers[i],
			PeerClient: func(base string) *client.Client {
				c := tightPeerClient(base)
				c.HTTP = &http.Client{Transport: held}
				return c
			}})
		defer servers[i].Stop()
		handlers[i] = servers[i].Handler()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	errs := make(chan error, 2)
	for i := range nodes {
		go func(node string, j sweep.Job) {
			rec, err := client.New(node).RunJob(ctx, j, false)
			if err == nil && rec.Key != j.Key() {
				err = fmt.Errorf("answered key %q, want %q", rec.Key, j.Key())
			}
			errs <- err
		}(peers[i], *owned[1-i])
	}
	for range nodes {
		if err := <-errs; err != nil {
			t.Fatalf("cross peer-fill did not complete: %v", err)
		}
	}
	for i := range servers {
		if got := runners[i].count(owned[i].Key()); got != 1 {
			t.Errorf("node %d ran its own key %d times, want 1", i, got)
		}
		if got := runners[i].count(owned[1-i].Key()); got != 0 {
			t.Errorf("node %d ran its peer's key %d times, want 0", i, got)
		}
		if m := getMetrics(t, nodes[i]); m.PeerFills != 1 || m.ReroutedJobs != 0 {
			t.Errorf("node %d: peer_fills_total=%d rerouted_jobs_total=%d, want 1 and 0", i, m.PeerFills, m.ReroutedJobs)
		}
	}
}
