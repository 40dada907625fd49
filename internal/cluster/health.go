package cluster

import (
	"context"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultProbeInterval is the base /healthz polling cadence; each
// probe waits the interval plus up to 20% jitter so a fleet of
// routers never phase-locks its probes against the backends.
const DefaultProbeInterval = 2 * time.Second

// health tracks the liveness of one backend. The flag is optimistic:
// a backend starts healthy (so streaming can begin before the first
// probe lands) and is marked down either by a failed probe or directly
// by the router when a stream to it dies — the prober then brings it
// back once /healthz answers 200 again.
type health struct {
	up atomic.Bool
}

// prober polls every backend's /healthz on a jittered interval and
// maintains the per-backend health flags the router consults when
// picking owners.
type prober struct {
	backends []string
	status   []*health
	interval time.Duration
	httpc    *http.Client
	rng      *rand.Rand
	rngMu    sync.Mutex

	stop   chan struct{}
	wg     sync.WaitGroup
	closed sync.Once
}

func newProber(backends []string, interval time.Duration) *prober {
	if interval <= 0 {
		interval = DefaultProbeInterval
	}
	p := &prober{
		backends: backends,
		status:   make([]*health, len(backends)),
		interval: interval,
		httpc:    &http.Client{Timeout: interval},
		rng:      rand.New(rand.NewSource(time.Now().UnixNano())),
		stop:     make(chan struct{}),
	}
	for i := range p.status {
		p.status[i] = &health{}
		p.status[i].up.Store(true)
	}
	for i := range backends {
		p.wg.Add(1)
		go p.loop(i)
	}
	return p
}

// jittered returns the next probe delay: interval + up to 20%.
func (p *prober) jittered() time.Duration {
	p.rngMu.Lock()
	j := p.rng.Int63n(int64(p.interval)/5 + 1)
	p.rngMu.Unlock()
	return p.interval + time.Duration(j)
}

// loop probes one backend until the prober closes.
func (p *prober) loop(i int) {
	defer p.wg.Done()
	t := time.NewTimer(p.jittered())
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
		}
		p.probe(i)
		t.Reset(p.jittered())
	}
}

// probe performs one /healthz round trip and updates the flag. Any
// non-200 answer (including 503 draining) counts as down: a draining
// backend is leaving the pool and new sweeps must route around it.
func (p *prober) probe(i int) {
	ctx, cancel := context.WithTimeout(context.Background(), p.interval)
	defer cancel()
	url := strings.TrimSuffix(p.backends[i], "/") + "/healthz"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		p.status[i].up.Store(false)
		return
	}
	resp, err := p.httpc.Do(req)
	if err != nil {
		p.status[i].up.Store(false)
		return
	}
	resp.Body.Close()
	p.status[i].up.Store(resp.StatusCode == http.StatusOK)
}

// healthy reports backend i's last known state.
func (p *prober) healthy(i int) bool { return p.status[i].up.Load() }

// markDown records a backend failure observed out-of-band (a dead
// stream); the prober will restore the flag when /healthz recovers.
func (p *prober) markDown(i int) { p.status[i].up.Store(false) }

// close stops every probe loop.
func (p *prober) close() {
	p.closed.Do(func() { close(p.stop) })
	p.wg.Wait()
}
