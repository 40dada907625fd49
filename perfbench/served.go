package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/floorplan"
	"repro/internal/sweep"
	"repro/internal/thermal"
)

// Served-mix traffic. The request classes are the ones ROADMAP item 1(c)
// names (cache-hot repeats, cold sweeps, cold -stack specs), and the
// request shapes resemble the sweeps .github/e2e_served.sh sends (EXP-1
// and EXP-2, small rosters, short durations). The shares, the rate, and
// the exact sizes are synthetic: the repository holds no request log to
// take them from. The rate is fixed rather than derived from the
// measured capacity so that two versions of the code face the same
// load; the traced run prints where it sits against max_ok_rps. At the
// nominal rate a 20 s run issues about 1680 warm and 720 cold requests,
// enough for ten samples beyond the warm p99, the cold p95, and the
// TTFB p99.
const (
	servedRate      = 120.0 // nominal requests per second
	numWarmSpecs    = 16
	warmShare       = 0.70
	coldShare       = 0.20 // the remaining 10% are cold-stack requests
	coldDurationS   = 10
	latencyLimitMS  = 50.0 // warm tail limit for max_ok_rps
	servedSetupReps = 7
	requestTimeout  = 10 * time.Second // a stalled request fails instead of wedging the run
)

// ladderRates are the rates, as multiples of the nominal one, the
// traced run climbs for max_ok_rps.
var ladderRates = []float64{2, 3, 4, 6, 8}

var servedBenches = []string{"Web-med", "Web-high", "Database", "Web&DB", "gcc", "gzip", "MPlayer", "MPlayer&Web"}

type reqClass int

const (
	warmReq reqClass = iota
	coldReq
	stackReq
)

func (c reqClass) String() string {
	return [...]string{"warm", "cold", "cold-stack"}[c]
}

// plannedReq is one generated request of the open loop.
type plannedReq struct {
	class reqClass
	req   client.Request
	njobs int
	node  int    // target node; -1 routes through the cluster router
	want  string // warm: digest of the spec's first response
	stack *floorplan.StackSpec
}

// outcome is what one request measured.
type outcome struct {
	lat, ttfb    time.Duration // from due time
	decodePerRec time.Duration // first to last record, per record
	ticks        int64
	digest       string
	recs         []sweep.Record // kept for the probe's request only
	err          error
}

// warmPool is a set of specs whose results are already cached, with
// the digest of each one's first response.
type warmPool struct {
	reqs []client.Request
	refs []string
}

// newWarmPool draws the pool's specs: small multi-policy sweeps.
func newWarmPool(rng *rand.Rand) *warmPool {
	p := &warmPool{reqs: make([]client.Request, numWarmSpecs)}
	for i := range p.reqs {
		p.reqs[i] = client.Request{Spec: sweep.Spec{
			Scenarios:  sweep.ScenariosFor([]floorplan.Experiment{[]floorplan.Experiment{floorplan.EXP1, floorplan.EXP2}[rng.Intn(2)]}),
			Policies:   pick(rng, exp.PolicyOrder, 3),
			Benchmarks: pick(rng, servedBenches, 2),
			Seed:       simSeed(rng),
			Solvers:    []thermal.SolverKind{thermal.SolverCached},
			DurationsS: []float64{20},
		}}
	}
	return p
}

// planServed draws n requests of the mix.
func planServed(rng *rand.Rand, n int, warm *warmPool) ([]plannedReq, error) {
	exps := []floorplan.Experiment{floorplan.EXP1, floorplan.EXP2}
	coldSpec := func(sc sweep.Scenario, policies int) sweep.Spec {
		return sweep.Spec{
			Scenarios:  []sweep.Scenario{sc},
			Policies:   pick(rng, exp.PolicyOrder, policies),
			Benchmarks: []string{servedBenches[rng.Intn(len(servedBenches))]},
			Seed:       simSeed(rng),
			Solvers:    []thermal.SolverKind{thermal.SolverCached},
			DurationsS: []float64{coldDurationS},
		}
	}
	out := make([]plannedReq, n)
	for i := range out {
		p := &out[i]
		// Cold requests go through the router, so every key reaches its
		// owner and no node peer-fills a key its peer must simulate:
		// with one worker per node, two nodes peer-filling from each
		// other at once each hold their only worker while waiting on
		// the other's, and both stall.
		p.node = -1
		switch u := rng.Float64(); {
		case u < warmShare:
			p.class = warmReq
			k := rng.Intn(len(warm.reqs))
			p.req, p.want = warm.reqs[k], warm.refs[k]
			// Half the warm requests go straight to one node, which
			// peer-fills the keys its peer owns from the peer's cache.
			if rng.Intn(2) == 0 {
				p.node = rng.Intn(2)
			}
		case u < warmShare+coldShare:
			p.class = coldReq
			p.req = client.Request{Spec: coldSpec(sweep.Scenario{Exp: exps[rng.Intn(len(exps))]}, 2)}
		default:
			p.class = stackReq
			spec, err := perturbedStack(rng, exps[rng.Intn(len(exps))])
			if err != nil {
				return nil, err
			}
			p.stack = &spec
			p.req = client.Request{Spec: coldSpec(sweep.Scenario{Stack: &sweep.StackRef{Spec: &spec}}, 1)}
		}
		jobs, err := p.req.Jobs()
		if err != nil {
			return nil, err
		}
		p.njobs = len(jobs)
	}
	return out, nil
}

// servedRun is one booted two-node cluster and the generator's clients.
type servedRun struct {
	nodes   []*node
	urls    []string
	router  *cluster.Router
	direct  []*client.Client
	httpc   *http.Client
	retries atomic.Int64
}

func bootServed() (*servedRun, error) {
	nodes, err := bootNodes(2)
	if err != nil {
		return nil, err
	}
	s := &servedRun{nodes: nodes, httpc: newHTTPClient()}
	for _, n := range nodes {
		s.urls = append(s.urls, n.url)
	}
	newClient := func(url string) *client.Client {
		c := client.New(url)
		c.HTTP = s.httpc
		c.OnRetry = func() { s.retries.Add(1) }
		return c
	}
	// Probes would add connections mid-run; the nodes stay up for the
	// whole run, so the router checks health only on failures.
	s.router, err = cluster.New(cluster.Config{Backends: s.urls, NewClient: newClient, ProbeInterval: time.Hour})
	if err != nil {
		stopNodes(nodes)
		return nil, err
	}
	for _, u := range s.urls {
		s.direct = append(s.direct, newClient(u))
	}
	return s, nil
}

// warm runs every spec of the pool once through the router, caching
// the results on their owners and recording each first response.
func (s *servedRun) warm(ctx context.Context, pool *warmPool) error {
	pool.refs = pool.refs[:0]
	for _, req := range pool.reqs {
		o := s.do(ctx, plannedReq{class: warmReq, req: req, node: -1}, time.Now(), false)
		if o.err != nil {
			return fmt.Errorf("warming the cache: %w", o.err)
		}
		pool.refs = append(pool.refs, o.digest)
	}
	return nil
}

func (s *servedRun) close() error {
	s.router.Close()
	err := stopNodes(s.nodes)
	s.httpc.CloseIdleConnections()
	return err
}

// do runs one request and times it from due.
func (s *servedRun) do(ctx context.Context, p plannedReq, due time.Time, keep bool) outcome {
	var st client.Streamer = s.router
	if p.node >= 0 {
		st = s.direct[p.node]
	}
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	h := sha256.New()
	enc := json.NewEncoder(h)
	var first, last time.Time
	var o outcome
	n, err := st.Stream(ctx, p.req, func(r sweep.Record) error {
		now := time.Now()
		if first.IsZero() {
			first = now
		}
		last = now
		o.ticks += int64(r.Ticks)
		if keep {
			o.recs = append(o.recs, r)
		}
		return enc.Encode(r)
	})
	o.lat = time.Since(due)
	o.ttfb = first.Sub(due)
	if n > 1 {
		o.decodePerRec = last.Sub(first) / time.Duration(n-1)
	}
	o.digest = hex.EncodeToString(h.Sum(nil))
	switch {
	case err != nil:
		o.err = err
	case n != p.njobs && p.njobs > 0:
		o.err = fmt.Errorf("%d records for %d jobs", n, p.njobs)
	case p.class != warmReq && o.ticks != int64(n)*coldDurationS*10:
		o.err = fmt.Errorf("%d ticks over %d records of %d s jobs", o.ticks, n, coldDurationS)
	case p.class == warmReq && p.want != "" && o.digest != p.want:
		o.err = fmt.Errorf("warm response differs from the spec's first response")
	}
	return o
}

// phase drives one open-loop phase and returns the outcomes and the
// generator's lateness per request. The records of request keep are
// retained.
func (s *servedRun) phase(ctx context.Context, plan []plannedReq, due []time.Duration, tr *tracer, keep int) ([]outcome, []time.Duration) {
	out := make([]outcome, len(plan))
	conns := func(i int) int {
		if plan[i].node < 0 {
			return len(s.nodes) // the router streams from every owner at once
		}
		return 1
	}
	lag := openLoop(ctx, due, conns, func(i int, at time.Time) {
		sp := tr.begin("served."+plan[i].class.String(), fmt.Sprintf("req%d", i), -1)
		out[i] = s.do(ctx, plan[i], at, i == keep)
		tr.end(sp)
	})
	return out, lag
}

func runServedMix(ctx context.Context, o opts) (*result, error) {
	res := newResult()
	rng := newRand(o.seed, "served-mix")
	pool := newWarmPool(rng)

	// Set-up: boot both nodes from a cold factorization cache and warm
	// the result caches through the router; repeated, median reported.
	var s *servedRun
	var setups []float64
	for rep := 0; rep < servedSetupReps; rep++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
		}
		thermal.ResetFactorCache()
		t := time.Now()
		var err error
		if s, err = bootServed(); err != nil {
			return nil, err
		}
		if err := s.warm(ctx, pool); err != nil {
			s.close()
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer s.close()
	res.e2e["setup_s"] = median(setups)
	res.line("setup_s", res.e2e["setup_s"], "s", fmt.Sprintf("boot two nodes and warm the cache, median of %d", servedSetupReps))

	seconds := o.seconds
	if o.trace {
		seconds /= 3
	}
	n := int(servedRate * seconds)
	plan, err := planServed(rng, n, pool)
	if err != nil {
		return nil, err
	}
	m0, c0 := mallocs(), cpuTime()
	before, err := scrapeAll(s.nodes)
	if err != nil {
		return nil, err
	}
	out, lag := s.phase(ctx, plan, arrivals(rng, servedRate, n), nil, -1)
	after, err := scrapeAll(s.nodes)
	if err != nil {
		return nil, err
	}
	allocs, cpu := mallocs()-m0, cpuTime()-c0
	st := summarize(&res.checks, plan, out, lag)
	ticks := max(after.SimTicks-before.SimTicks, 1)
	res.checks.ok(ticks == st.uniqueTicks, "servers simulated %d ticks, the requests needed %d", ticks, st.uniqueTicks)
	res.e2e["ns_per_tick"] = float64(cpu) / float64(ticks)
	res.e2e["allocs_per_tick"] = float64(allocs) / float64(ticks)
	res.e2e["op_p50_ms"] = median(st.all)
	res.line("request_p50_ms", res.e2e["op_p50_ms"], "ms", fmt.Sprintf("all classes, n=%d, open loop at %g/s", len(st.all), servedRate))
	res.line("ns_per_tick", res.e2e["ns_per_tick"], "ns", "whole-process CPU per server tick")
	res.line("cold_ns_per_tick", st.coldNSPerTick, "ns", "cold-request latency per simulated tick")
	res.line("peer_fill_share", float64(after.PeerFills-before.PeerFills)/float64(max(st.directWarmJobs, 1)), "ratio",
		fmt.Sprintf("peer fills per direct warm job, of %d; each node keeps what it fills, so fills cluster at the phase start", st.directWarmJobs))
	res.line("allocs_per_tick", res.e2e["allocs_per_tick"], "count", "whole process, per server tick")
	res.report = append(res.report, st.lines...)
	res.digest = servedDigest(pool, out)

	if o.trace {
		tr := newTracer()
		if err := servedTraced(ctx, res, s, rng, tr, st, o.budget()); err != nil {
			return nil, err
		}
		if err := tr.write(spanPath(o)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// digestRequests is how many leading requests the run digest covers.
// The plan is drawn request by request, so the leading requests are the
// same in the traced run, whose nominal phase is a third as long.
const digestRequests = 300

// servedDigest hashes the warm specs' first responses and the record
// streams of the phase's leading requests.
func servedDigest(pool *warmPool, out []outcome) string {
	h := sha256.New()
	for _, r := range pool.refs {
		h.Write([]byte(r))
	}
	for _, o := range out[:min(len(out), digestRequests)] {
		h.Write([]byte(o.digest))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// servedStats is one phase's summary.
type servedStats struct {
	all, warm, cold, ttfb []float64 // ms
	lagP99, lastLag       float64   // ms
	uniqueTicks           int64
	directWarmJobs        int
	coldNSPerTick         float64
	decodeUS              []float64
	lines                 []reportLine
	failed                int
}

// summarize checks every outcome into c and computes the phase's
// latency figures.
func summarize(c *checks, plan []plannedReq, out []outcome, lag []time.Duration) servedStats {
	var st servedStats
	var coldLat time.Duration
	var coldTicks int64
	seen := map[string]bool{}
	for i, p := range plan {
		o := out[i]
		if lag[i] < 0 {
			o.err = fmt.Errorf("never issued")
		}
		if !c.ok(o.err == nil, "%s request %d: %v", p.class, i, o.err) {
			st.failed++
			continue
		}
		ms := durMS(o.lat)
		st.all = append(st.all, ms)
		st.ttfb = append(st.ttfb, durMS(o.ttfb))
		if p.class == warmReq {
			st.warm = append(st.warm, ms)
			if p.node >= 0 {
				st.directWarmJobs += p.njobs
				if o.decodePerRec > 0 {
					st.decodeUS = append(st.decodeUS, durUS(o.decodePerRec))
				}
			}
		} else {
			st.cold = append(st.cold, ms)
			coldLat += o.lat
			coldTicks += o.ticks
			jobs, _ := p.req.Jobs()
			for _, j := range jobs {
				if !seen[j.Key()] {
					seen[j.Key()] = true
					st.uniqueTicks += int64(j.DurationS*10 + 0.5)
				}
			}
		}
	}
	if coldTicks > 0 {
		st.coldNSPerTick = float64(coldLat) / float64(coldTicks)
	}
	var lags []float64
	for _, l := range lag {
		if l >= 0 {
			lags = append(lags, durMS(l))
		}
	}
	st.lagP99, _ = percentile(lags, 0.99)
	if len(lags) > 0 {
		st.lastLag = lags[len(lags)-1]
	}
	st.lines = []reportLine{
		{name: "warm_p50_ms", value: median(st.warm), unit: "ms", note: fmt.Sprintf("n=%d", len(st.warm))},
		quantileLine("warm_p99_ms", st.warm, 0.99),
		{name: "cold_p50_ms", value: median(st.cold), unit: "ms", note: fmt.Sprintf("n=%d, cold and cold-stack", len(st.cold))},
		quantileLine("cold_p95_ms", st.cold, 0.95),
		quantileLine("ttfb_p99_ms", st.ttfb, 0.99),
		{name: "gen_lag_p99_ms", value: st.lagP99, unit: "ms", note: "generator lateness against schedule"},
	}
	return st
}

// servedTraced repeats the nominal phase with per-request spans on a
// freshly warmed pool (so direct warm requests peer-fill again), probes
// one cold job's layers, and climbs the rate ladder for max_ok_rps.
func servedTraced(ctx context.Context, res *result, s *servedRun, rng *rand.Rand, tr *tracer, plain servedStats, budget time.Duration) error {
	pool := newWarmPool(rng)
	if err := s.warm(ctx, pool); err != nil {
		return err
	}
	n := int(servedRate * budget.Seconds() / 3)
	plan, err := planServed(rng, n, pool)
	if err != nil {
		return err
	}
	keep := -1
	for i, p := range plan {
		if p.class == coldReq {
			keep = i
			break
		}
	}
	due := arrivals(rng, servedRate, n)

	before, err := scrapeAll(s.nodes)
	if err != nil {
		return err
	}
	routerBefore := s.router.Metrics()
	retriesBefore := s.retries.Load()
	cacheBefore := factorCacheCounts()
	var qmax atomic.Int64
	stopSampler := sampleQueueDepth(s.nodes, &qmax)
	out, lag := s.phase(ctx, plan, due, tr, keep)
	stopSampler()
	after, err := scrapeAll(s.nodes)
	if err != nil {
		return err
	}
	st := summarize(&res.checks, plan, out, lag)
	res.checks.ok(after.SimTicks-before.SimTicks == st.uniqueTicks,
		"traced phase: servers simulated %d ticks, the requests needed %d", after.SimTicks-before.SimTicks, st.uniqueTicks)

	L := res.layers
	L["thermal.factor_cache_hit_ratio"] = hitRatio(cacheBefore, factorCacheCounts())
	hits := float64(after.CacheHits - before.CacheHits)
	if all := hits + float64(after.CacheMisses-before.CacheMisses) + float64(after.InflightJoins-before.InflightJoins); all > 0 {
		L["server.cache_hit_ratio"] = hits / all
	}
	L["server.inflight_joins"] = float64(after.InflightJoins - before.InflightJoins)
	L["server.sim_ticks"] = float64(after.SimTicks - before.SimTicks)
	L["server.queue_depth_max"] = float64(qmax.Load())
	L["server.peer_fills"] = float64(after.PeerFills - before.PeerFills)
	L["server.backend_retries"] = float64(after.BackendRetries - before.BackendRetries)
	L["client.decode_us_per_record"] = median(st.decodeUS)
	L["client.retries"] = float64(s.retries.Load() - retriesBefore)
	rm := s.router.Metrics()
	L["cluster.rerouted"] = float64(rm.ReroutedJobs - routerBefore.ReroutedJobs)
	L["cluster.retries"] = float64(rm.BackendRetries - routerBefore.BackendRetries)
	L["cluster.partition_skew"] = partitionSkew(s.urls, plan)
	L["served.warm_p50_ms"] = median(st.warm)
	L["served.warm_p99_ms"], _ = percentile(st.warm, 0.99)
	L["served.cold_p50_ms"] = median(st.cold)
	L["served.cold_p95_ms"], _ = percentile(st.cold, 0.95)
	L["served.ttfb_p99_ms"], _ = percentile(st.ttfb, 0.99)
	L["bench.gen_lag_p99_ms"] = st.lagP99
	L["bench.tracing_overhead_ratio"] = median(st.all) / median(plain.all)
	if L["floorplan.spec_build_us"], err = timeSpecBuilds(plan); err != nil {
		return err
	}

	a := newAcc()
	if keep >= 0 && out[keep].err == nil {
		jobs, _ := plan[keep].req.Jobs()
		if err := probeJob(tr, a, &res.checks, jobs[0], &out[keep].recs[0], 1); err != nil {
			res.checks.fail("probe %s: %v", jobs[0].Key(), err)
		}
	}
	a.into(L)

	L["served.max_ok_rps"] = climbLadder(ctx, res, s, rng, pool, plain, budget/3)
	return nil
}

// climbLadder raises the open-loop rate rung by rung while the warm
// tail meets the latency limit, no request fails, and the generator
// ends each rung on schedule (no growing backlog). It returns the
// highest passing rate, 0 when even the nominal phase failed. Ladder
// failures are overload, not wrong outputs, so they are judged here and
// left out of the run's operation counts.
func climbLadder(ctx context.Context, res *result, s *servedRun, rng *rand.Rand, pool *warmPool, nominal servedStats, budget time.Duration) float64 {
	pass := func(st servedStats) bool {
		return st.failed == 0 && len(st.warm) > 0 && pctOrMax(st.warm, 0.99) <= latencyLimitMS && st.lastLag <= latencyLimitMS
	}
	if !pass(nominal) {
		return 0
	}
	best := servedRate
	rung := budget / time.Duration(len(ladderRates))
	for _, m := range ladderRates {
		rate := servedRate * m
		n := int(rate * rung.Seconds())
		plan, err := planServed(rng, n, pool)
		if err != nil {
			res.checks.fail("ladder plan: %v", err)
			return best
		}
		rctx, cancel := context.WithTimeout(ctx, 3*rung+2*time.Second)
		out, lag := s.phase(rctx, plan, arrivals(rng, rate, n), nil, -1)
		cancel()
		var scratch checks
		st := summarize(&scratch, plan, out, lag)
		ok := pass(st)
		res.line(fmt.Sprintf("ladder_%.0f_rps", rate), pctOrMax(st.warm, 0.99), "ms",
			fmt.Sprintf("warm tail, n=%d, %d failed, last lag %.1f ms, pass=%v", len(st.warm), st.failed, st.lastLag, ok))
		if !ok {
			break
		}
		best = rate
	}
	res.line("max_ok_rps", best, "1/s", fmt.Sprintf("warm tail limit %g ms; the nominal %g/s is %.0f%% of it", latencyLimitMS, servedRate, 100*servedRate/best))
	return best
}

// pctOrMax returns the q-quantile, or the maximum when too few samples
// lie beyond it: a short ladder rung is judged on its worst request.
func pctOrMax(ms []float64, q float64) float64 {
	if v, ok := percentile(ms, q); ok {
		return v
	}
	if len(ms) == 0 {
		return 0
	}
	return sortedCopy(ms)[len(ms)-1]
}

// sampleQueueDepth polls the nodes' summed queue depth until the
// returned stop function is called; stop waits for the sampler.
func sampleQueueDepth(nodes []*node, maxDepth *atomic.Int64) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if m, err := scrapeAll(nodes); err == nil && m.QueueDepth > maxDepth.Load() {
					maxDepth.Store(m.QueueDepth)
				}
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// partitionSkew is the most-loaded owner's key count over the mean,
// across every job key the phase requested.
func partitionSkew(urls []string, plan []plannedReq) float64 {
	counts := make([]int, len(urls))
	total := 0
	for _, p := range plan {
		jobs, _ := p.req.Jobs()
		for _, j := range jobs {
			counts[cluster.Owner(urls, j.Key())]++
			total++
		}
	}
	if total == 0 {
		return 0
	}
	sort.Ints(counts)
	return float64(counts[len(counts)-1]) / (float64(total) / float64(len(urls)))
}

// timeSpecBuilds times parsing, building, and hashing each cold-stack
// request's inline spec document, in microseconds per spec.
func timeSpecBuilds(plan []plannedReq) (float64, error) {
	var total time.Duration
	n := 0
	for _, p := range plan {
		if p.stack == nil {
			continue
		}
		doc, err := json.Marshal(p.stack)
		if err != nil {
			return 0, err
		}
		t := time.Now()
		spec, err := floorplan.ParseStackSpec(doc)
		if err == nil {
			_, err = spec.Build()
			_ = spec.Hash()
		}
		total += time.Since(t)
		if err != nil {
			return 0, err
		}
		n++
	}
	if n == 0 {
		return 0, nil
	}
	return durUS(total) / float64(n), nil
}
