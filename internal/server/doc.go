// Package server is dtmserved's serving layer: a long-running HTTP
// service that accepts sweep requests (JSON bodies mapping onto
// sweep.Spec), executes them on a bounded worker pool, and streams the
// per-run records back as JSONL (or SSE for browser clients) in the
// spec's canonical job order, so two requests for the same spec yield
// byte-identical streams. The full wire format — request schema,
// record fields including the rel_* lifetime metrics, the
// X-Sweep-Status completion trailer, and every /metrics counter — is
// documented in docs/wire-format.md at the repository root.
//
// # Place in the dataflow
//
// The server is a network front end over the same orchestration path
// the CLI uses: SweepRequest → sweep.Spec.Expand → per-job dedup →
// exp's simulator-backed runner → sweep.Record → stream. dtmsweep
// -remote swaps its local Execute call for a POST here with sinks,
// checkpoints, sharding, and resume semantics unchanged.
//
// # Dedup and cancellation semantics
//
// Identical jobs are deduplicated at two levels, both keyed by the
// orchestrator's deterministic job keys: an LRU result cache serves
// repeated jobs from memory without simulating a single tick, and an
// in-flight table joins concurrent requests for a job that is already
// running. Reliability-enabled jobs carry distinct keys (the |rel
// suffix), so their richer records can never be served from — or
// poison — a plain job's cache slot. Per-job contexts are refcounted
// across the requests waiting on them: a job is canceled when the last
// interested request disconnects, and never before.
//
// # Concurrency
//
// The Server's mutable state divides into the mutex-guarded cache +
// in-flight table (mutated together in one critical section, so a
// concurrent request always sees a job as either in-flight or cached,
// never neither) and the lock-free counters (atomics, updated by
// workers and handlers without contention; the tick observer fires
// roughly every 17 µs per worker). Handlers run on net/http's goroutines; simulation
// runs only on the worker pool.
//
// # Route table
//
// Handler's route table holds the per-request plumbing: every /v1
// route counts in requests_total and requests_active, and the four that
// start new work (sweep, job, session open, session replay) answer 503
// while the server drains. Every SSE response, sweep and session alike,
// goes through one writer (sseStream). No stream flushes per record or
// event: each flushes only when its producer is about to wait (a paced
// session before its pacing sleep, a sweep before it blocks on a job
// still running), so a stream that never waits leaves in net/http's
// buffer-sized writes.
//
// # Cluster peer-fill
//
// With Config.Peers set, N servers compose into one cluster whose
// collective cache behaves like a single giant node's: every job key
// has a rendezvous-hashed owner (cluster.Owner over the peer list),
// and a cache miss for a key another node owns is resolved by POSTing
// the job to the owner's /v1/job before falling back to a local run.
// Peer-fill requests carry client.PeerFillHeader and are answered with
// local work only — the one-hop loop guard — so inconsistent peer
// lists cost at most one extra hop, never a cycle. A dead owner
// degrades locality, not correctness: the job reroutes to a local
// simulation and the rerouted_jobs_total counter moves. The client
// side of the composition is cluster.Router (internal/cluster), which
// partitions sweeps across owners and re-merges the streams.
package server
