package workload

import (
	"fmt"
	"sync"
)

// TraceCache memoizes Generate so that every run in a sweep replaying
// the same (benchmark, core count, duration, seed) combination shares
// one trace slice. Generation is deterministic in the config, so a
// cached trace is identical to a regenerated one; sharing it is what
// guarantees different policies — possibly running in different
// workers, shards, or resumed invocations — see the exact same arrival
// sequence. Safe for concurrent use; at most one goroutine generates a
// given trace while others wait for it.
type TraceCache struct {
	mu sync.Mutex
	m  map[string]*traceEntry
}

type traceEntry struct {
	once sync.Once
	jobs []Job
	err  error
}

// NewTraceCache returns an empty cache.
func NewTraceCache() *TraceCache {
	return &TraceCache{m: make(map[string]*traceEntry)}
}

func cacheKey(cfg GenConfig) string {
	return fmt.Sprintf("%s|%d|%g|%d", cfg.Bench.Name, cfg.NumCores, cfg.DurationS, cfg.Seed)
}

// maxTraceEntries bounds the cache. Generation is deterministic, so
// evicting and regenerating is correctness-neutral; the bound is what
// keeps a long-running server's memory finite when clients sweep over
// many distinct (benchmark, duration, seed) combinations, each of
// which can pin a multi-megabyte trace forever otherwise. The limit is
// far above what one sweep's job space touches, so local sweeps never
// evict mid-run.
const maxTraceEntries = 512

// Get returns the trace for cfg, generating it on first use. Callers
// must treat the returned slice as read-only — it is shared. When the
// cache is full, an arbitrary other entry is evicted first; goroutines
// still holding an evicted slice keep it (it is immutable), later
// requests simply regenerate.
func (c *TraceCache) Get(cfg GenConfig) ([]Job, error) {
	key := cacheKey(cfg)
	c.mu.Lock()
	e, ok := c.m[key]
	if !ok {
		if len(c.m) >= maxTraceEntries {
			for k := range c.m {
				delete(c.m, k)
				break
			}
		}
		e = &traceEntry{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.jobs, e.err = Generate(cfg)
	})
	return e.jobs, e.err
}

// Len reports how many distinct traces have been requested.
func (c *TraceCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
