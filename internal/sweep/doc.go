// Package sweep is the experiment orchestration layer: it expands a
// declarative Spec (the cross product of scenarios x policies x
// benchmarks x replicate seeds x solver labels x durations, optionally
// with the lifetime tracker attached) into a deterministic job list,
// executes it on a bounded worker pool, and streams per-run Records to
// pluggable sinks as runs complete.
//
// # Place in the dataflow
//
//	Spec ──Expand──▶ []Job ──Execute──▶ RunFunc (exp's simulator) ──▶ Record ──▶ Sink(s)
//
// Package exp supplies the simulator-backed RunFunc and builds the
// paper's figure matrices on top; internal/server streams the same
// records over HTTP; cmd/dtmsweep is the CLI driver.
//
// # The job-key determinism contract
//
// Expand is a pure function of the Spec: two processes expanding the
// same Spec enumerate identical job lists, and Job.Key is a stable
// identity covering every field that changes the simulated system
// (scenario physics, policy, benchmark, replicate+seed, duration, DPM,
// reliability) plus the solver label, which every run ignores but
// records keep. Everything downstream leans on that contract: Shard
// partitions by stable key hash so N machines cover a sweep
// disjointly, checkpoints resume by key (LoadCheckpoint +
// CompletedKeys give the skip keys that client.Request.Jobs drops
// before Execute sees the list), dtmserved's result cache and
// in-flight dedup are keyed by it, and OrderedSink re-emits
// completion-ordered records in canonical expansion order so equal
// specs yield byte-identical streams.
//
// Records carry raw, unnormalized per-run values. Normalization
// against a baseline needs the whole sweep, which a shard does not
// have, so records from any mix of shards, resumed invocations, and
// remote servers merge by simple concatenation (exp.Aggregate dedups
// and verifies completeness).
//
// # Grouped (batched) execution
//
// Options.Group maps jobs to batching keys and Options.RunGroup runs
// a chunk of at most 16 same-key jobs as one unit — exp pairs them so
// jobs over the same thermal system, of any durations, advance through
// one panel solve per tick (sim.RunBatchContext). A singleton chunk
// runs through the RunFunc; every dispatch unit then shares one error
// and emit path. Grouping is pure scheduling: job keys, record
// contents, and the wire format are unchanged, records still stream in
// completion order, a resumed sweep's job list already lacks its
// checkpointed jobs (so only what runs is grouped), and a group runner
// must return records identical to the per-job path's — a contract the
// exp tests pin bit for bit.
//
// # Concurrency
//
// Execute serializes all Sink.Put calls under one mutex — sinks need
// no internal locking — and delivers records in completion order.
// RunFunc implementations must be safe for concurrent calls: one
// RunFunc serves every worker of the pool. Cancellation propagates
// from the Execute context down to the per-tick simulation loop, and
// in-flight runs that complete during cancellation still reach the
// sinks, so an interrupted sweep's checkpoint holds every finished
// run.
package sweep
