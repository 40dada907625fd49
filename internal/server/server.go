package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// Config tunes a Server.
type Config struct {
	// Workers bounds the simulation worker pool (0: NumCPU).
	Workers int
	// CacheEntries caps the LRU result cache (0: 4096 records).
	CacheEntries int
	// MaxJobsPerSweep rejects requests expanding past this many jobs
	// (0: 4096), bounding the memory a single request can pin.
	MaxJobsPerSweep int
	// Runner executes one job (nil: the exp simulator-backed runner
	// with the server's tick-throughput hook attached). Tests inject
	// fakes here.
	Runner sweep.RunFunc
	// ValidateJob vets one job before anything is scheduled (nil: known
	// policy + known benchmark + buildable stack + positive duration).
	// Validation failures reject the whole request with 400 before the
	// stream starts — a bad roster must not fail halfway through a
	// half-simulated response.
	ValidateJob func(sweep.Job) error
	// Peers is the cluster's full node list (base URLs, including this
	// node's own as spelled in Self). When set, a cache miss for a job
	// key another node owns (cluster.Owner over Peers) is peer-filled:
	// fetched from the owner via POST /v1/job before falling back to a
	// local run. At most Workers fills are in flight at once, and none
	// occupies a worker. Empty means single-node, no peer-fill. Every
	// node and every router must spell the list identically for
	// ownership to agree.
	Peers []string
	// Self is this node's own base URL exactly as it appears in Peers.
	// Ignored when Peers is empty; when Peers is set, a Self that is
	// not in the list disables peer-fill (the node cannot know which
	// keys are its own).
	Self string
	// PeerClient builds the client used for peer-fill fetches (nil:
	// client.New with default retry tuning). Tests inject clients with
	// tight backoff here.
	PeerClient func(baseURL string) *client.Client
	// MaxSessions bounds resident interactive sessions
	// (0: session.DefaultMaxSessions). At the cap, opening a session
	// evicts the oldest idle one.
	MaxSessions int
	// SessionIdleTimeout evicts sessions untouched this long
	// (0: session.DefaultIdleTimeout; negative: idle eviction off).
	SessionIdleTimeout time.Duration
}

// call is one running (or queued) job and everything needed to share
// it: requests joining an identical job take a reference and wait on
// done; the last reference released before completion cancels ctx.
type call struct {
	key    string
	job    sweep.Job
	ctx    context.Context
	cancel context.CancelFunc
	refs   int // guarded by Server.mu
	done   chan struct{}
	rec    sweep.Record // valid after done closes, when err is nil
	err    error
	// peerOK permits resolving this call by asking the key's owner
	// (false when the request that created the call was itself a
	// peer-fill hop — the one-hop loop guard).
	peerOK bool
}

// Server is the HTTP sweep service. Create with New, expose Handler on
// an http.Server, and Stop when done.
type Server struct {
	cfg        Config
	runner     sweep.RunFunc
	validate   func(sweep.Job) error
	met        counters
	draining   atomic.Bool
	baseCtx    context.Context
	baseCancel context.CancelFunc
	tasks      chan *call
	wg         sync.WaitGroup
	// fills bounds concurrent outbound peer-fills to Workers. A fill
	// never holds a worker: it runs before its call joins the task
	// queue, so two nodes filling from each other can never each wait
	// on the other's only worker.
	fills chan struct{}

	// Cluster membership for peer-fill, fixed at construction. self is
	// the index of this node in peers, or -1 when peer-fill is off;
	// peerClients is index-aligned with peers (nil at self).
	peers       []string
	self        int
	peerClients []*client.Client

	mu       sync.Mutex // guards cache and inflight together
	cache    *lruCache
	inflight map[string]*call

	// sessions owns the interactive-session subsystem (open, stream,
	// events, replay); it shares the server's job validation and feeds
	// the tick-throughput metric.
	sessions *session.Manager
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 4096
	}
	if cfg.MaxJobsPerSweep <= 0 {
		cfg.MaxJobsPerSweep = 4096
	}
	s := &Server{
		cfg:      cfg,
		cache:    newLRUCache(cfg.CacheEntries),
		inflight: make(map[string]*call),
		tasks:    make(chan *call),
		fills:    make(chan struct{}, cfg.Workers),
	}
	s.met.start = time.Now()
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.runner = cfg.Runner
	if s.runner == nil {
		s.runner, _ = exp.NewRunners(exp.RunnerHooks{
			Observer: sim.FuncObserver{
				Tick: func(int) { s.met.simTicks.Add(1) },
			},
		})
	}
	s.validate = cfg.ValidateJob
	if s.validate == nil {
		s.validate = defaultValidateJob
	}
	s.sessions = session.NewManager(session.Config{
		MaxSessions: cfg.MaxSessions,
		IdleTimeout: cfg.SessionIdleTimeout,
		Observer: sim.FuncObserver{
			Tick: func(int) { s.met.simTicks.Add(1) },
		},
		Validate: func(j sweep.Job) error { return s.validate(j) },
	})
	s.self = -1
	if len(cfg.Peers) > 1 {
		newClient := cfg.PeerClient
		if newClient == nil {
			newClient = client.New
		}
		s.peers = cfg.Peers
		s.peerClients = make([]*client.Client, len(cfg.Peers))
		for i, p := range cfg.Peers {
			if p == cfg.Self {
				s.self = i
				continue
			}
			c := newClient(p)
			prev := c.OnRetry
			c.OnRetry = func() {
				s.met.backendRetries.Add(1)
				if prev != nil {
					prev()
				}
			}
			s.peerClients[i] = c
		}
		if s.self < 0 {
			// This node cannot locate itself in the peer list, so it
			// cannot tell which keys it owns; peer-fill stays off.
			s.peers, s.peerClients = nil, nil
		}
	}
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Drain flips the server into draining mode: /healthz answers 503, new
// sweep submissions and session opens are refused, and every resident
// session closes — active session streams end with their `closed`
// terminal event — while sweep requests already streaming (and their
// jobs) continue. Call it when shutdown begins — before
// http.Server.Shutdown — so health-check-based orchestration sees the
// instance leave the pool at the start of the drain window, not after.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.sessions.Drain()
}

// Stop cancels every queued and running job and waits for the workers
// to exit. Call after draining the HTTP server: handlers still
// streaming will see their jobs fail with context.Canceled.
func (s *Server) Stop() {
	s.draining.Store(true)
	s.sessions.Close()
	s.baseCancel()
	s.wg.Wait()
}

// Handler returns the service's routing table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("POST /v1/job", s.handleJob)
	mux.HandleFunc("POST /v1/session", s.handleSessionOpen)
	mux.HandleFunc("POST /v1/session/replay", s.handleSessionReplay)
	mux.HandleFunc("GET /v1/session/{id}/stream", s.handleSessionStream)
	mux.HandleFunc("POST /v1/session/{id}/event", s.handleSessionEvent)
	mux.HandleFunc("GET /v1/session/{id}/log", s.handleSessionLog)
	mux.HandleFunc("GET /v1/session/{id}/replay", s.handleSessionSeek)
	mux.HandleFunc("GET /{$}", s.handleIndex)
	return mux
}

// worker runs queued calls until the server stops.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case c := <-s.tasks:
			s.met.queueDepth.Add(-1)
			s.met.activeJobs.Add(1)
			rec, err := s.runner(c.ctx, c.job)
			s.met.activeJobs.Add(-1)
			s.finish(c, rec, err)
		case <-s.baseCtx.Done():
			return
		}
	}
}

// peerFor returns the client to peer-fill c through, or nil when the
// job must run locally: no cluster configured, this node owns the key,
// or the call's request carried client.PeerFillHeader (the one-hop
// loop guard — a peer-originated request is answered with local work,
// so inconsistent peer lists cost at most one extra hop, never a
// cycle).
func (s *Server) peerFor(c *call) *client.Client {
	if len(s.peers) == 0 || !c.peerOK {
		return nil
	}
	o := cluster.Owner(s.peers, c.key)
	if o < 0 || o == s.self {
		return nil
	}
	return s.peerClients[o]
}

// acquire resolves one job to either a cached record (pending.c nil)
// or a refcounted call: joining the in-flight run when one exists,
// otherwise creating and scheduling a new one.
func (s *Server) acquire(j sweep.Job, peerOK bool) pending {
	key := j.Key()
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec, ok := s.cache.Get(key); ok {
		s.met.cacheHits.Add(1)
		return pending{rec: rec}
	}
	if c, ok := s.inflight[key]; ok {
		c.refs++
		s.met.inflightJoins.Add(1)
		return pending{c: c}
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	c := &call{key: key, job: j, ctx: ctx, cancel: cancel, refs: 1, done: make(chan struct{}), peerOK: peerOK}
	s.inflight[key] = c
	s.met.cacheMisses.Add(1)
	s.met.queueDepth.Add(1)
	go s.schedule(c)
	return pending{c: c}
}

// schedule resolves a cache-missed call. A key another node owns is
// first peer-filled from its rendezvous owner (one hop, and only for
// calls that did not themselves arrive as a peer-fill) before the call
// joins the task queue, so the wait on the owner never holds a local
// worker. An unreachable owner is not fatal — the job re-routes to a
// local run and the rerouted counter moves — so a dead peer degrades
// cache locality, never correctness. A call whose every requester (or
// the server) goes away before it reaches a worker finishes as
// canceled.
func (s *Server) schedule(c *call) {
	if pc := s.peerFor(c); pc != nil && s.peerFill(c, pc) {
		return
	}
	select {
	case s.tasks <- c:
	case <-c.ctx.Done():
		s.met.queueDepth.Add(-1)
		s.finish(c, sweep.Record{}, c.ctx.Err())
	}
}

// peerFill tries to resolve c from the key's owner through pc, holding
// one of the Workers fill slots for the round trip. It reports whether
// c finished: false means the owner could not answer and the job must
// run locally.
func (s *Server) peerFill(c *call, pc *client.Client) bool {
	var (
		rec sweep.Record
		err error
	)
	select {
	case s.fills <- struct{}{}:
		rec, err = pc.RunJob(c.ctx, c.job, true)
		<-s.fills
	case <-c.ctx.Done():
		err = c.ctx.Err()
	}
	switch {
	case err == nil:
		s.met.peerFills.Add(1)
	case c.ctx.Err() != nil:
		err = c.ctx.Err()
	default:
		s.met.reroutedJobs.Add(1)
		return false
	}
	s.met.queueDepth.Add(-1)
	s.finish(c, rec, err)
	return true
}

// finish publishes a call's outcome: successful records enter the
// result cache in the same critical section that retires the in-flight
// entry, so a concurrent request always sees the job as either
// in-flight or cached, never neither.
func (s *Server) finish(c *call, rec sweep.Record, err error) {
	// Strip the wall-clock field: served streams are a pure function of
	// the spec, and a cached record must be indistinguishable from a
	// fresh one.
	rec.ElapsedMS = 0
	s.mu.Lock()
	if err == nil {
		s.cache.Add(c.key, rec)
	}
	// Guard by identity: a fully-released call was already retired, and
	// its slot may now hold a successor run that must not be dropped.
	if s.inflight[c.key] == c {
		delete(s.inflight, c.key)
	}
	s.mu.Unlock()
	c.rec, c.err = rec, err
	// Counters move before done closes: a client that has seen its
	// stream complete must never read /metrics and find the work it
	// just received still unaccounted.
	switch {
	case err == nil:
		s.met.jobsCompleted.Add(1)
		if c.job.Reliability {
			s.met.reliabilityJobs.Add(1)
			s.met.damageTotal.Add(rec.RelTotalCycleDamage)
			s.met.worstDamageMax.Max(rec.RelWorstCycleDamage)
		}
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.met.jobsCanceled.Add(1)
	default:
		s.met.jobsFailed.Add(1)
	}
	close(c.done)
	c.cancel()
}

// release drops one reference; the last pre-completion release cancels
// the job. The call is retired from the in-flight table in the same
// critical section that decides it is doomed, so a request arriving in
// the release-to-cancel window starts a fresh run instead of joining a
// call that is about to fail with context.Canceled.
func (s *Server) release(c *call) {
	if c == nil {
		return
	}
	s.mu.Lock()
	c.refs--
	last := c.refs == 0
	if last && s.inflight[c.key] == c {
		delete(s.inflight, c.key)
	}
	s.mu.Unlock()
	if last {
		c.cancel()
	}
}

// pending is one slot of a request's canonical-order result list.
type pending struct {
	rec sweep.Record // cache hit when c is nil
	c   *call
}

// SweepRequest is the POST /v1/sweep body: the declarative spec plus
// optional sharding and a resume skip-set, mirroring dtmsweep's local
// sweep mode so a workflow can swap `-out jsonl` for `-remote` without
// changing what runs. The type lives in internal/client (the canonical
// home of the wire contract, shared with the cluster router); the alias
// keeps the server API spelling.
type SweepRequest = client.Request

// Resource limits for the default validator. They bound what one
// validated job can cost a worker: an unbounded grid builds (and
// factors) an arbitrarily large thermal system with no cancellation
// point, and an unbounded duration pins a worker for an arbitrary tick
// count. Both ceilings sit well above anything the experiments use
// (the extended sweeps run 64x64 grids and 1800 s traces).
const (
	// maxExpandJobs caps the sweep expansion itself (see handleSweep);
	// MaxJobsPerSweep then governs the post-shard/skip runnable count.
	maxExpandJobs = 1 << 16
	// maxGridCells caps GridRows x GridCols per layer.
	maxGridCells = 128 * 128
	// maxDurationS caps one job's simulated time (one simulated week).
	maxDurationS = 7 * 24 * 3600
	// maxSpecLayers / maxSpecBlocks cap a declarative stack BEFORE it
	// is built: layer and block counts are computable from the spec
	// alone (template expansion is a fixed count per template), so an
	// inline spec declaring thousands of tiers is rejected without
	// allocating its geometry, matrices, or factorization. The ceilings
	// sit far above the library (EXP-6 is 6 layers, 48 blocks) while
	// bounding the thermal system to roughly the size a maximal grid
	// request could already demand.
	maxSpecLayers = 16
	maxSpecBlocks = 4096
)

// defaultValidateJob vets a job against the simulator's actual
// vocabulary and the resource limits above, cheaply: every scenario
// resolves to its StackSpec, is size-gated from the spec, and is then
// built once in block mode, which also proves the geometry validates.
func defaultValidateJob(j sweep.Job) error {
	if !exp.KnownPolicy(j.Policy) {
		return fmt.Errorf("unknown policy %q", j.Policy)
	}
	if _, err := workload.ByName(j.Bench); err != nil {
		return fmt.Errorf("unknown benchmark %q", j.Bench)
	}
	spec, err := j.Scenario.StackSpec()
	if err != nil {
		return err
	}
	if n := spec.NumLayers(); n > maxSpecLayers {
		return fmt.Errorf("scenario %s: %d layers exceeds the %d-layer limit", j.Scenario.ID(), n, maxSpecLayers)
	}
	if n := spec.NumBlocks(); n > maxSpecBlocks {
		return fmt.Errorf("scenario %s: %d blocks exceeds the %d-block limit", j.Scenario.ID(), n, maxSpecBlocks)
	}
	if _, err := spec.Build(); err != nil {
		return fmt.Errorf("scenario %s: %v", j.Scenario.ID(), err)
	}
	if j.DurationS <= 0 || j.DurationS > maxDurationS {
		return fmt.Errorf("duration %g s out of range (0, %d]", j.DurationS, maxDurationS)
	}
	rows, cols := j.Scenario.GridRows, j.Scenario.GridCols
	if (rows > 0) != (cols > 0) {
		return fmt.Errorf("scenario %s: grid mode needs both rows and cols", j.Scenario.ID())
	}
	if rows > 0 && (rows > maxGridCells || cols > maxGridCells || rows*cols > maxGridCells) {
		return fmt.Errorf("scenario %s: grid %dx%d exceeds the %d cells/layer limit", j.Scenario.ID(), rows, cols, maxGridCells)
	}
	return nil
}

// httpError writes a JSON error document. Only usable before the
// record stream starts.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `dtmserved: thermal-simulation sweep service

POST /v1/sweep                        submit a sweep spec, stream records back (JSONL; SSE with Accept: text/event-stream)
POST /v1/job                          run one job, answer its record (cluster peer-fill path)
POST /v1/session                      open an interactive session (live run with mid-run events)
GET  /v1/session/{id}/stream          the session's live SSE stream (frames, events, terminal)
POST /v1/session/{id}/event           inject an event: set_policy, set_workload, fail_tsv, migrate
GET  /v1/session/{id}/log             the session's event log (JSONL; replayable)
GET  /v1/session/{id}/replay          re-stream a finished session from ?from_tick=T (checkpoint-seeded)
POST /v1/session/replay               replay a recorded event log against a fresh engine
GET  /healthz                         liveness
GET  /metrics                         JSON counters (jobs, queue, cache, sessions, tick throughput)
`)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	switch {
	case s.baseCtx.Err() != nil:
		status, code = "stopping", http.StatusServiceUnavailable
	case s.draining.Load():
		status, code = "draining", http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{
		"status":   status,
		"uptime_s": time.Since(s.met.start).Seconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.met.snapshot(s.cfg.Workers)
	s.mu.Lock()
	m.CacheEntries = s.cache.Len()
	m.CacheCapacity = s.cfg.CacheEntries
	s.mu.Unlock()
	st := s.sessions.Stats()
	m.SessionsOpen = st.Open
	m.SessionEnginesLive = st.EnginesLive
	m.SessionsOpened = st.Opened
	m.SessionEvents = st.Events
	m.SessionReplays = st.Replays
	m.SessionsEvicted = st.Evicted
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(m)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.met.requestsTotal.Add(1)
	s.met.requestsActive.Add(1)
	defer s.met.requestsActive.Add(-1)

	if s.draining.Load() || s.baseCtx.Err() != nil {
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	// The body cap must fit a resume request for the largest sweep the
	// server expands: maxExpandJobs skip keys at ~80 bytes each is
	// ~5 MB, so 8 MB leaves headroom without being an open door.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	var req SweepRequest
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad sweep request: %v", err)
		return
	}
	// Gate on the declared cross-product size BEFORE expanding: a
	// request body of a few bytes can declare billions of jobs, and
	// materializing that list would OOM the process. Sharding does not
	// shrink the expansion (shards filter the full list), so the cap
	// applies to the whole sweep.
	if n := req.Spec.NumJobs(); n > maxExpandJobs {
		httpError(w, http.StatusRequestEntityTooLarge,
			"sweep declares %d jobs; the server expands at most %d", n, maxExpandJobs)
		return
	}
	jobs, err := req.Jobs()
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad sweep request: %v", err)
		return
	}
	if len(jobs) == 0 {
		if len(req.Spec.Expand()) == 0 {
			httpError(w, http.StatusBadRequest, "sweep expands to no jobs")
			return
		}
		// The spec is fine; the shard owns nothing or skip_keys covers
		// everything. That is a successful empty stream, so an
		// idempotent `-remote -resume` re-invocation of a finished
		// sweep exits 0 exactly like its local equivalent.
		newStream(w, r).done(0)
		return
	}
	if len(jobs) > s.cfg.MaxJobsPerSweep {
		httpError(w, http.StatusRequestEntityTooLarge,
			"sweep expands to %d jobs, limit is %d (shard the request)", len(jobs), s.cfg.MaxJobsPerSweep)
		return
	}
	// Jobs differing only in replicate, seed, solver, or DPM share
	// every validated dimension; vet each distinct combination once
	// (stack construction is the expensive part).
	vetted := make(map[string]bool)
	for _, j := range jobs {
		vk := fmt.Sprintf("%s|%s|%s|%g", j.Scenario.ID(), j.Policy, j.Bench, j.DurationS)
		if vetted[vk] {
			continue
		}
		vetted[vk] = true
		if err := s.validate(j); err != nil {
			httpError(w, http.StatusBadRequest, "job %s: %v", j.Key(), err)
			return
		}
	}

	// Acquire every slot up front so identical jobs inside one request
	// dedup against each other too, then stream in canonical order.
	peerOK := r.Header.Get(client.PeerFillHeader) == ""
	acquired := make([]pending, len(jobs))
	for i, j := range jobs {
		acquired[i] = s.acquire(j, peerOK)
	}
	s.met.jobsSubmitted.Add(int64(len(jobs)))
	releaseFrom := func(i int) {
		for _, p := range acquired[i:] {
			s.release(p.c)
		}
	}

	st := newStream(w, r)
	for i, p := range acquired {
		rec := p.rec
		if p.c != nil {
			select {
			case <-p.c.done:
				rec, err = p.c.rec, p.c.err
				s.release(p.c)
				if err != nil {
					releaseFrom(i + 1)
					st.fail(fmt.Errorf("job %s: %w", jobs[i].Key(), err))
					return
				}
			case <-r.Context().Done():
				releaseFrom(i)
				st.fail(fmt.Errorf("client went away: %w", r.Context().Err()))
				return
			}
		}
		// Baseline is the one job field excluded from the key (a
		// baseline-only run and a roster run of the same policy are the
		// same simulation), so a cached or joined record may carry
		// another spec's classification. Restamp it from THIS request's
		// expansion, keeping the stream byte-identical to a local
		// canonical run of the same spec.
		rec.Baseline = jobs[i].Baseline
		if err := st.record(rec); err != nil {
			releaseFrom(i + 1)
			return // client write failed; nothing left to tell it
		}
	}
	st.done(len(acquired))
}

// handleJob runs a single job (POST /v1/job, body: one sweep.Job) and
// answers its record as one JSON document. It is the cluster peer-fill
// path: a node resolving a cache miss for a key it does not own calls
// the owner here. The job goes through the same validation, dedup, and
// cache as a sweep slot, so a peer-filled record is indistinguishable
// from a streamed one. Requests carrying client.PeerFillHeader are
// answered with local work only (the one-hop loop guard).
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.met.requestsTotal.Add(1)
	s.met.requestsActive.Add(1)
	defer s.met.requestsActive.Add(-1)

	if s.draining.Load() || s.baseCtx.Err() != nil {
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var j sweep.Job
	if err := dec.Decode(&j); err != nil {
		httpError(w, http.StatusBadRequest, "bad job request: %v", err)
		return
	}
	if err := s.validate(j); err != nil {
		httpError(w, http.StatusBadRequest, "job %s: %v", j.Key(), err)
		return
	}
	peerOK := r.Header.Get(client.PeerFillHeader) == ""
	p := s.acquire(j, peerOK)
	s.met.jobsSubmitted.Add(1)
	rec := p.rec
	if p.c != nil {
		select {
		case <-p.c.done:
			rec = p.c.rec
			err := p.c.err
			s.release(p.c)
			if err != nil {
				// 5xx: the failure may be this process's (cancellation,
				// resource pressure), so the peer should retry or fall
				// back to running the job itself.
				httpError(w, http.StatusInternalServerError, "job %s: %v", j.Key(), err)
				return
			}
		case <-r.Context().Done():
			s.release(p.c)
			return
		}
	}
	rec.Baseline = j.Baseline
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rec)
}
