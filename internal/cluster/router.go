package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/sweep"
)

// Config tunes a Router.
type Config struct {
	// Backends are the cluster nodes' base URLs (e.g.
	// "http://host:8080"). Ownership is a pure function of these
	// strings, so every router and every server's -peers list must
	// spell them identically.
	Backends []string
	// NewClient builds the per-backend stream client (nil: client.New
	// with default retry tuning). Tests inject clients with tight
	// backoff here.
	NewClient func(baseURL string) *client.Client
	// ProbeInterval is the base /healthz polling cadence
	// (0: DefaultProbeInterval). Each probe adds up to 20% jitter and
	// times out after one interval.
	ProbeInterval time.Duration
}

// Metrics is a snapshot of a Router's failure-handling counters.
type Metrics struct {
	// BackendRetries counts transient-failure retries across every
	// backend stream (the per-backend clients' retry attempts).
	BackendRetries int64
	// ReroutedJobs counts jobs re-routed to a rendezvous runner-up
	// after their owner died mid-sweep.
	ReroutedJobs int64
}

// Router streams sweeps from a static set of dtmserved backends,
// routing every job key to its rendezvous owner and re-merging the
// per-backend streams into canonical job order. It implements
// client.Streamer, so single-node and cluster serving differ only in
// which constructor built the Streamer. Create with New, Close when
// done (stops the health probes).
type Router struct {
	backends []string
	clients  []*client.Client
	prober   *prober

	retries  atomic.Int64
	rerouted atomic.Int64
}

var _ client.Streamer = (*Router)(nil)

// New builds a Router over cfg.Backends and starts its health probes.
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("cluster: no backends configured")
	}
	seen := make(map[string]bool, len(cfg.Backends))
	for _, b := range cfg.Backends {
		if b == "" {
			return nil, fmt.Errorf("cluster: empty backend URL")
		}
		if seen[b] {
			return nil, fmt.Errorf("cluster: duplicate backend %q", b)
		}
		seen[b] = true
	}
	newClient := cfg.NewClient
	if newClient == nil {
		newClient = client.New
	}
	r := &Router{
		backends: cfg.Backends,
		clients:  make([]*client.Client, len(cfg.Backends)),
		prober:   newProber(cfg.Backends, cfg.ProbeInterval),
	}
	for i, b := range cfg.Backends {
		c := newClient(b)
		// Chain rather than replace: an injected client may carry its
		// own counter hook.
		prev := c.OnRetry
		c.OnRetry = func() {
			r.retries.Add(1)
			if prev != nil {
				prev()
			}
		}
		r.clients[i] = c
	}
	return r, nil
}

// Close stops the router's health probes. In-flight Stream calls are
// unaffected (they fail over on their own observations).
func (r *Router) Close() { r.prober.close() }

// Metrics returns a snapshot of the failure-handling counters.
func (r *Router) Metrics() Metrics {
	return Metrics{
		BackendRetries: r.retries.Load(),
		ReroutedJobs:   r.rerouted.Load(),
	}
}

// pick returns the highest-ranked live backend for key: the rendezvous
// owner when it is healthy, otherwise the runner-up, and so on. dead
// holds backends this Stream call has already watched fail (the prober
// may resurrect them for later calls, but re-offering a mid-sweep
// corpse its keys back would ping-pong). Returns -1 when no backend is
// left.
func (r *Router) pick(key string, dead map[int]bool) int {
	for _, i := range Rank(r.backends, key) {
		if !dead[i] && r.prober.healthy(i) {
			return i
		}
	}
	return -1
}

// emitSink adapts the caller's emit function to sweep.Sink so the
// canonical re-merge can run through sweep.OrderedSink — the same
// reordering machinery dtmsweep's -canonical mode and the server's
// ordered streaming already use.
type emitSink struct {
	emit  client.EmitFunc
	count *int
}

// Put implements sweep.Sink.
func (s emitSink) Put(rec sweep.Record) error {
	*s.count++
	return s.emit(rec)
}

// Close implements sweep.Sink.
func (s emitSink) Close() error { return nil }

// Stream implements client.Streamer over the backend set.
//
// The request's canonical job list is partitioned by rendezvous owner;
// each owner receives the original spec with every other owner's keys
// in the skip-set (the job space stays one spec on the wire, so the
// servers' expansion gates and caches see exactly what a single-node
// request would send). The per-owner streams run concurrently and
// re-merge through sweep.OrderedSink, so the emitted sequence is
// byte-identical to a single node serving the whole request.
//
// Failure handling is layered: each backend's client retries transient
// failures itself (re-issuing only unreceived jobs); when a backend's
// stream dies for good, the backend is marked down and its unreceived
// keys re-route to their rendezvous runner-up. Non-transient failures
// (a rejected request, a deterministic job failure) abort the whole
// stream, matching single-node semantics.
func (r *Router) Stream(ctx context.Context, req client.Request, emit client.EmitFunc) (int, error) {
	jobs, err := req.Jobs()
	if err != nil {
		return 0, err
	}
	if len(jobs) == 0 {
		return 0, nil
	}

	// keyCount is the canonical multiplicity of every key (duplicate
	// jobs expand to duplicate keys); sub-request skip-sets are built
	// from its key set.
	keyCount := make(map[string]int, len(jobs))
	for _, j := range jobs {
		keyCount[j.Key()]++
	}

	streamCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu      sync.Mutex // guards ordered, emitted, fatal
		emitted int
		fatal   error
	)
	ordered := sweep.NewOrderedSink(emitSink{emit: emit, count: &emitted}, jobs)
	fail := func(err error) {
		mu.Lock()
		if fatal == nil {
			fatal = err
		}
		mu.Unlock()
		cancel()
	}

	dead := make(map[int]bool) // guarded by deadMu
	var deadMu sync.Mutex

	var wg sync.WaitGroup
	// launch streams the given key multiset from one backend,
	// re-routing leftovers on failure. wg.Add happens before the
	// goroutine spawns (including re-routes, which launch from within
	// a still-counted goroutine), so wg.Wait can never pass early.
	var launch func(backend int, task map[string]int)
	launch = func(backend int, task map[string]int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Skip everything outside the task: the union of the
			// original skip-set and the keys other owners hold.
			skip := make(map[string]bool, len(keyCount))
			for k := range keyCount {
				if task[k] == 0 {
					skip[k] = true
				}
			}
			sub := req.WithSkip(skip)
			remaining := make(map[string]int, len(task))
			for k, c := range task {
				remaining[k] = c
			}
			_, err := r.clients[backend].Stream(streamCtx, sub, func(rec sweep.Record) error {
				mu.Lock()
				defer mu.Unlock()
				if remaining[rec.Key] > 0 {
					remaining[rec.Key]--
				}
				return ordered.Put(rec)
			})
			if err == nil {
				return
			}
			if streamCtx.Err() != nil || !client.IsTransient(err) {
				fail(fmt.Errorf("cluster: backend %s: %w", r.backends[backend], err))
				return
			}
			// The backend is gone: route what it still owed to the
			// next-ranked live node(s).
			r.prober.markDown(backend)
			deadMu.Lock()
			dead[backend] = true
			next := make(map[int]map[string]int)
			left := 0
			for k, c := range remaining {
				if c == 0 {
					continue
				}
				left += c
				b := r.pick(k, dead)
				if b < 0 {
					deadMu.Unlock()
					fail(fmt.Errorf("cluster: backend %s died owing %d jobs and no live backend remains: %w", r.backends[backend], left, err))
					return
				}
				if next[b] == nil {
					next[b] = make(map[string]int)
				}
				next[b][k] = c
			}
			deadMu.Unlock()
			if left == 0 {
				return // died exactly at its last record
			}
			r.rerouted.Add(int64(left))
			for b, task := range next {
				launch(b, task)
			}
		}()
	}

	// Initial assignment: every key to its highest-ranked live backend.
	initial := make(map[int]map[string]int)
	deadMu.Lock()
	for k, c := range keyCount {
		b := r.pick(k, dead)
		if b < 0 {
			deadMu.Unlock()
			return 0, fmt.Errorf("cluster: no live backend (all %d marked down)", len(r.backends))
		}
		if initial[b] == nil {
			initial[b] = make(map[string]int)
		}
		initial[b][k] = c
	}
	deadMu.Unlock()
	for b, task := range initial {
		launch(b, task)
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if fatal != nil {
		// Do not flush the reorder buffer: the emitted records must
		// stay a contiguous canonical prefix even on failure.
		return emitted, fatal
	}
	if err := ordered.Close(); err != nil {
		return emitted, err
	}
	if emitted != len(jobs) {
		return emitted, fmt.Errorf("cluster: merged stream delivered %d of %d records", emitted, len(jobs))
	}
	return emitted, nil
}
