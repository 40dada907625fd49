package thermal

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/linalg"
)

// SolverKind labels a thermal solve path in sweep specs, job keys and
// records. Every simulation solves on the model's memoized sparse
// factorization whatever the label; SteadyStateWith and
// NewTransientWith factor privately under SolverSparse.
type SolverKind int

const (
	// SolverCached solves against the model's own memoized sparse
	// factorizations: G once, and C/dt + G once per time step, each
	// built on first use. This is the default. A model shared through
	// SharedModel therefore hands every run of its system the same
	// factorization: a policy x floorplan x benchmark sweep runs
	// hundreds of simulations over the same four stacks and factors
	// each system once.
	SolverCached SolverKind = iota
	// SolverSparse factors the sparse system privately on every call,
	// keeping nothing on the model (one-shot solves of systems that
	// are never solved again, and factorization timing).
	SolverSparse
	// SolverDense selects the memoized sparse factorization, as
	// SolverCached does; the label keeps existing sweep specs and
	// records valid. Nothing solves densely.
	SolverDense
)

// String returns the flag-friendly name of the solver kind.
func (k SolverKind) String() string {
	switch k {
	case SolverCached:
		return "cached"
	case SolverSparse:
		return "sparse"
	case SolverDense:
		return "dense"
	}
	return fmt.Sprintf("SolverKind(%d)", int(k))
}

// ParseSolverKind converts a flag value ("cached", "sparse", "dense")
// to a SolverKind.
func ParseSolverKind(s string) (SolverKind, error) {
	switch s {
	case "cached", "":
		return SolverCached, nil
	case "sparse":
		return SolverSparse, nil
	case "dense":
		return SolverDense, nil
	}
	return 0, fmt.Errorf("thermal: unknown solver kind %q (want cached, sparse, or dense)", s)
}

// MarshalJSON encodes the kind as its flag name ("cached"), so wire
// formats (the dtmserved sweep API) read naturally instead of exposing
// iota values.
func (k SolverKind) MarshalJSON() ([]byte, error) {
	switch k {
	case SolverCached, SolverSparse, SolverDense:
		return json.Marshal(k.String())
	}
	return nil, fmt.Errorf("thermal: cannot marshal invalid %s", k)
}

// UnmarshalJSON accepts the flag name ("cached", "sparse", "dense");
// an empty string selects the default, matching ParseSolverKind.
func (k *SolverKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("thermal: solver kind must be a JSON string: %w", err)
	}
	parsed, err := ParseSolverKind(s)
	if err != nil {
		return err
	}
	*k = parsed
	return nil
}

// lazyFactor is a sparse factorization computed at most once, on
// first use, and safe to read from any number of goroutines after. A
// transient factor also keeps the C/dt vector it was built from, which
// every integrator on it shares read-only.
type lazyFactor struct {
	once sync.Once
	chol *linalg.Cholesky
	cdt  []float64
	err  error
}

func (f *lazyFactor) get(build func() (*linalg.Cholesky, error)) (*linalg.Cholesky, error) {
	f.once.Do(func() { f.chol, f.err = build() })
	return f.chol, f.err
}

// steadyFactor returns the sparse factorization of G: a private one
// under SolverSparse, the model's memoized one under every other kind.
func (m *Model) steadyFactor(kind SolverKind) (*linalg.Cholesky, error) {
	if kind == SolverSparse {
		return linalg.FactorCholesky(m.G)
	}
	return m.steady.get(func() (*linalg.Cholesky, error) {
		return linalg.FactorCholesky(m.G)
	})
}

// transientFactor returns the sparse factorization of C/dt + G for the
// given step and the C/dt vector in it: private ones under
// SolverSparse, the model's memoized ones for dt under every other
// kind.
func (m *Model) transientFactor(dt float64, kind SolverKind) (*linalg.Cholesky, []float64, error) {
	build := func() (*linalg.Cholesky, []float64, error) {
		cdt := make([]float64, m.NumNodes)
		for i := range cdt {
			cdt[i] = m.C[i] / dt
		}
		chol, err := linalg.FactorCholesky(m.G.AddDiag(cdt))
		return chol, cdt, err
	}
	if kind == SolverSparse {
		return build()
	}
	v, _ := m.transient.LoadOrStore(dt, new(lazyFactor))
	f := v.(*lazyFactor)
	chol, err := f.get(func() (chol *linalg.Cholesky, err error) {
		chol, f.cdt, err = build()
		return chol, err
	})
	return chol, f.cdt, err
}

// modelCache shares prepared models across engines and goroutines. Keys
// are caller-supplied system identities (the simulator uses its
// ModelKey), so every run of one stack, discretization and tick length
// gets the same *Model and, through it, the same factorizations. Each
// entry is built exactly once even under concurrent first access.
type modelCache struct {
	entries sync.Map // string -> *modelEntry
	count   atomic.Int64
	hits    atomic.Int64
	builds  atomic.Int64
}

type modelEntry struct {
	once  sync.Once
	model *Model
	err   error
}

// maxSharedModels bounds the process-wide cache. A sweep over every
// shipped scenario (six stacks, block and grid modes) touches about a
// dozen models, so the bound never binds for experiment workloads; it
// exists for long-running servers, where client-chosen parameters (grid
// dimensions, joint resistivity) would otherwise pin an unbounded
// number of models forever. Eviction is correctness-neutral: a dropped
// model is rebuilt on the next lookup, and holders of the evicted
// *Model keep using it.
const maxSharedModels = 64

var sharedModels modelCache

// SharedModel returns the process-wide model registered under key,
// calling build to construct it on the first lookup only; concurrent
// first lookups build once and all receive the result, error included.
// The key must identify everything build depends on. A shared Model is
// read-only, and its factorizations are memoized on first use, so
// every holder solves against the same *linalg.Cholesky.
func SharedModel(key string, build func() (*Model, error)) (*Model, error) {
	e, loaded := sharedModels.entries.LoadOrStore(key, &modelEntry{})
	entry := e.(*modelEntry)
	if !loaded && sharedModels.count.Add(1) > maxSharedModels {
		// Evict one arbitrary other entry to make room. Concurrent
		// over-inserts may briefly overshoot the bound by the number of
		// racing goroutines; each evicts one entry, so the size still
		// converges back under the cap. LoadAndDelete keeps the counter
		// honest when two evictors race to the same victim: only the
		// one that actually removed it decrements, the other walks on
		// to the next candidate.
		sharedModels.entries.Range(func(k, _ any) bool {
			if k.(string) == key {
				return true
			}
			if _, ok := sharedModels.entries.LoadAndDelete(k); ok {
				sharedModels.count.Add(-1)
				return false
			}
			return true
		})
	}
	entry.once.Do(func() {
		sharedModels.builds.Add(1)
		entry.model, entry.err = build()
	})
	if loaded {
		sharedModels.hits.Add(1)
	}
	return entry.model, entry.err
}

// FactorCacheStats reports the shared model cache counters: models
// currently held, lookups served from the cache, and models built.
func FactorCacheStats() (entries int, hits, misses int64) {
	sharedModels.entries.Range(func(_, _ any) bool {
		entries++
		return true
	})
	return entries, sharedModels.hits.Load(), sharedModels.builds.Load()
}

// ResetFactorCache drops every shared model, and every factorization
// it memoized, and zeroes the counters (tests and cold-path
// benchmarks).
func ResetFactorCache() {
	sharedModels.entries.Range(func(k, _ any) bool {
		sharedModels.entries.Delete(k)
		return true
	})
	sharedModels.count.Store(0)
	sharedModels.hits.Store(0)
	sharedModels.builds.Store(0)
}
